//! The topology configuration language.
//!
//! A config file declares brokers (with listen addresses and links),
//! clients (with their home brokers), and information spaces:
//!
//! ```text
//! # Comments start with '#'. Delays are one-way milliseconds.
//! broker hub   listen=127.0.0.1:7001
//! broker west  listen=127.0.0.1:7002  link=hub:25
//! broker east  listen=127.0.0.1:7003  link=hub:25
//!
//! client alice west
//! client bob   east
//!
//! schema trades  issue:string  price:dollar  volume:integer
//! schema sensor  factor=1  unit:integer(0..4)  reading:dollar  critical:boolean
//! ```
//!
//! Integer attributes may declare a finite domain with `(lo..hi)` (half-open
//! range), which makes link-matching annotations exact. `factor=<n>`
//! declares the space's first `n` attributes factored: every broker's
//! matching tree keeps one subtree per combination of their values (PST
//! factoring), so each of them needs a domain.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use linkcast::{BrokerNetwork, NetworkBuilder};
use linkcast_types::{BrokerId, ClientId, EventSchema, SchemaRegistry, Value, ValueKind};

/// A parsed configuration plus the name ↔ id maps needed to talk about it.
#[derive(Debug)]
pub struct Config {
    /// The validated broker network.
    pub network: BrokerNetwork,
    /// Registered information spaces.
    pub registry: Arc<SchemaRegistry>,
    /// Broker name → id, in declaration order.
    pub brokers: Vec<(String, BrokerId, SocketAddr)>,
    /// Client name → (id, home broker name).
    pub clients: Vec<(String, ClientId, String)>,
    /// Links as (dialer broker, target broker) pairs, for wiring order.
    pub links: Vec<(String, String)>,
}

impl Config {
    /// Looks up a broker by name.
    pub fn broker(&self, name: &str) -> Option<(BrokerId, SocketAddr)> {
        self.brokers
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, id, addr)| (*id, *addr))
    }

    /// Looks up a client by name.
    pub fn client(&self, name: &str) -> Option<ClientId> {
        self.clients
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, id, _)| *id)
    }

    /// The home broker name of a client.
    pub fn client_home(&self, name: &str) -> Option<&str> {
        self.clients
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, home)| home.as_str())
    }

    /// Looks up a schema by information-space name.
    pub fn schema(&self, name: &str) -> Option<&EventSchema> {
        self.registry.get_by_name(name)
    }
}

/// A configuration parse error with its line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line the error was found on (0 for file-level problems).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "config error: {}", self.message)
        } else {
            write!(f, "config error on line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses a configuration file's contents.
///
/// # Errors
///
/// [`ConfigError`] describing the first problem found, with its line number.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    struct BrokerDecl {
        name: String,
        listen: SocketAddr,
        links: Vec<(String, f64)>,
    }
    let mut broker_decls: Vec<BrokerDecl> = Vec::new();
    let mut client_decls: Vec<(String, String, usize)> = Vec::new();
    let mut registry = SchemaRegistry::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("broker") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "broker needs a name"))?
                    .to_string();
                if broker_decls.iter().any(|b| b.name == name) {
                    return Err(err(line_no, format!("duplicate broker `{name}`")));
                }
                let mut listen = None;
                let mut links = Vec::new();
                for field in words {
                    if let Some(addr) = field.strip_prefix("listen=") {
                        listen = Some(addr.parse::<SocketAddr>().map_err(|e| {
                            err(line_no, format!("bad listen address `{addr}`: {e}"))
                        })?);
                    } else if let Some(spec) = field.strip_prefix("link=") {
                        let (target, delay) = spec.split_once(':').ok_or_else(|| {
                            err(line_no, format!("link `{spec}` must be `broker:delay_ms`"))
                        })?;
                        let delay: f64 = delay
                            .parse()
                            .map_err(|_| err(line_no, format!("bad link delay `{delay}`")))?;
                        links.push((target.to_string(), delay));
                    } else {
                        return Err(err(line_no, format!("unknown broker field `{field}`")));
                    }
                }
                let listen = listen
                    .ok_or_else(|| err(line_no, format!("broker `{name}` needs listen=ADDR")))?;
                broker_decls.push(BrokerDecl {
                    name,
                    listen,
                    links,
                });
            }
            Some("client") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "client needs a name"))?
                    .to_string();
                let home = words
                    .next()
                    .ok_or_else(|| err(line_no, format!("client `{name}` needs a home broker")))?
                    .to_string();
                if words.next().is_some() {
                    return Err(err(line_no, "unexpected trailing fields on client line"));
                }
                if client_decls.iter().any(|(n, _, _)| *n == name) {
                    return Err(err(line_no, format!("duplicate client `{name}`")));
                }
                client_decls.push((name, home, line_no));
            }
            Some("schema") => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line_no, "schema needs a name"))?;
                let mut builder = EventSchema::builder(name.to_string());
                let mut any = false;
                for field in words {
                    if let Some(levels) = field.strip_prefix("factor=") {
                        let levels = levels.parse().map_err(|_| {
                            err(line_no, format!("`{field}` must be `factor=<count>`"))
                        })?;
                        builder = builder.factored(levels);
                        continue;
                    }
                    any = true;
                    let (attr, kind_spec) = field.split_once(':').ok_or_else(|| {
                        err(line_no, format!("attribute `{field}` must be `name:kind`"))
                    })?;
                    let (kind_word, domain) =
                        match kind_spec.split_once('(') {
                            None => (kind_spec, None),
                            Some((k, rest)) => {
                                let body = rest.strip_suffix(')').ok_or_else(|| {
                                    err(line_no, format!("unclosed domain in `{field}`"))
                                })?;
                                let (lo, hi) = body.split_once("..").ok_or_else(|| {
                                    err(line_no, format!("domain `{body}` must be `lo..hi`"))
                                })?;
                                let lo: i64 = lo.trim().parse().map_err(|_| {
                                    err(line_no, format!("bad domain bound `{lo}`"))
                                })?;
                                let hi: i64 = hi.trim().parse().map_err(|_| {
                                    err(line_no, format!("bad domain bound `{hi}`"))
                                })?;
                                if hi <= lo {
                                    return Err(err(line_no, format!("empty domain `{body}`")));
                                }
                                (k, Some((lo, hi)))
                            }
                        };
                    let kind = ValueKind::from_keyword(kind_word).ok_or_else(|| {
                        err(line_no, format!("unknown attribute kind `{kind_word}`"))
                    })?;
                    match domain {
                        Some((lo, hi)) => {
                            if kind != ValueKind::Int {
                                return Err(err(
                                    line_no,
                                    "domains are only supported on integer attributes",
                                ));
                            }
                            builder =
                                builder.attribute_with_domain(attr, kind, (lo..hi).map(Value::Int));
                        }
                        None => builder = builder.attribute(attr, kind),
                    }
                }
                if !any {
                    return Err(err(line_no, format!("schema `{name}` has no attributes")));
                }
                let schema = builder.build().map_err(|e| err(line_no, e.to_string()))?;
                registry
                    .register(schema)
                    .map_err(|e| err(line_no, e.to_string()))?;
            }
            Some(other) => {
                return Err(err(
                    line_no,
                    format!("unknown directive `{other}` (expected broker/client/schema)"),
                ))
            }
            None => unreachable!("blank lines are skipped"),
        }
    }

    if broker_decls.is_empty() {
        return Err(err(0, "no brokers declared"));
    }
    if registry.is_empty() {
        return Err(err(0, "no schemas declared"));
    }

    // Materialize the network.
    let mut builder = NetworkBuilder::new();
    let mut broker_ids: HashMap<String, BrokerId> = HashMap::new();
    for decl in &broker_decls {
        let id = builder.add_broker();
        broker_ids.insert(decl.name.clone(), id);
    }
    let mut links = Vec::new();
    for decl in &broker_decls {
        for (target, delay) in &decl.links {
            let &target_id = broker_ids
                .get(target)
                .ok_or_else(|| err(0, format!("link target `{target}` is not a broker")))?;
            builder
                .connect(broker_ids[&decl.name], target_id, *delay)
                .map_err(|e| err(0, e.to_string()))?;
            links.push((decl.name.clone(), target.clone()));
        }
    }
    let mut clients = Vec::new();
    for (name, home, line_no) in &client_decls {
        let &home_id = broker_ids
            .get(home)
            .ok_or_else(|| err(*line_no, format!("client home `{home}` is not a broker")))?;
        let id = builder
            .add_client(home_id)
            .map_err(|e| err(*line_no, e.to_string()))?;
        clients.push((name.clone(), id, home.clone()));
    }
    let network = builder.build().map_err(|e| err(0, e.to_string()))?;

    let brokers = broker_decls
        .into_iter()
        .map(|d| {
            let id = broker_ids[&d.name];
            (d.name, id, d.listen)
        })
        .collect();
    Ok(Config {
        network,
        registry: Arc::new(registry),
        brokers,
        clients,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A two-region demo.
broker hub   listen=127.0.0.1:7001
broker west  listen=127.0.0.1:7002  link=hub:25
broker east  listen=127.0.0.1:7003  link=hub:25  link=west:65

client alice west
client bob   east

schema trades issue:string price:dollar volume:integer
schema sensor factor=1 unit:integer(0..4) critical:boolean
"#;

    #[test]
    fn parses_the_sample() {
        let config = parse(SAMPLE).unwrap();
        assert_eq!(config.network.broker_count(), 3);
        assert_eq!(config.network.client_count(), 2);
        assert_eq!(config.brokers.len(), 3);
        let (hub, addr) = config.broker("hub").unwrap();
        assert_eq!(addr.port(), 7001);
        let (west, _) = config.broker("west").unwrap();
        assert_eq!(config.network.delay(hub, west), Some(25.0));
        assert_eq!(config.links.len(), 3);

        let alice = config.client("alice").unwrap();
        assert_eq!(config.network.home_broker(alice), Some(west));
        assert_eq!(config.client_home("alice"), Some("west"));
        assert!(config.client("nobody").is_none());

        let trades = config.schema("trades").unwrap();
        assert_eq!(trades.arity(), 3);
        let sensor = config.schema("sensor").unwrap();
        assert_eq!(sensor.attribute(0).unwrap().domain().unwrap().len(), 4);
        assert_eq!(trades.factored(), 0..0);
        assert_eq!(sensor.factored(), 0..1);
    }

    #[test]
    fn rejects_bad_input_with_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("broker", "needs a name"),
            ("broker b", "needs listen=ADDR"),
            ("broker b listen=nonsense", "bad listen address"),
            (
                "broker b listen=1.2.3.4:1 link=x",
                "must be `broker:delay_ms`",
            ),
            ("broker b listen=1.2.3.4:1 bogus=1", "unknown broker field"),
            ("client a", "needs a home broker"),
            ("frobnicate x", "unknown directive"),
            ("schema s", "no attributes"),
            ("schema s a", "must be `name:kind`"),
            ("schema s a:float", "unknown attribute kind"),
            ("schema s a:integer(3..1)", "empty domain"),
            ("schema s a:string(0..3)", "only supported on integer"),
            (
                "schema s factor=one a:integer(0..3)",
                "must be `factor=<count>`",
            ),
            (
                "schema s factor=1 a:integer b:integer(0..3)",
                "no finite domain",
            ),
            (
                "schema s factor=2 a:integer(0..3)",
                "factors 2 attributes of 1",
            ),
        ];
        for (text, needle) in cases {
            let e = parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{text}` should fail with `{needle}`, got `{e}`"
            );
        }
    }

    #[test]
    fn rejects_structural_problems() {
        // Duplicate broker.
        let e = parse("broker b listen=1.2.3.4:1\nbroker b listen=1.2.3.4:2\nschema s a:integer\n")
            .unwrap_err();
        assert!(e.to_string().contains("duplicate broker"));
        // Unknown link target.
        let e = parse("broker b listen=1.2.3.4:1 link=ghost:5\nschema s a:integer\n").unwrap_err();
        assert!(e.to_string().contains("not a broker"));
        // Unknown client home.
        let e =
            parse("broker b listen=1.2.3.4:1\nclient c ghost\nschema s a:integer\n").unwrap_err();
        assert!(e.to_string().contains("not a broker"));
        // Disconnected network.
        let e = parse("broker a listen=1.2.3.4:1\nbroker b listen=1.2.3.4:2\nschema s a:integer\n")
            .unwrap_err();
        assert!(e.to_string().contains("unreachable"));
        // Missing pieces.
        assert!(parse("schema s a:integer\n")
            .unwrap_err()
            .to_string()
            .contains("no brokers"));
        assert!(parse("broker b listen=1.2.3.4:1\n")
            .unwrap_err()
            .to_string()
            .contains("no schemas"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let config =
            parse("# heading\n\nbroker b listen=127.0.0.1:0 # trailing\n\nschema s a:integer\n")
                .unwrap();
        assert_eq!(config.network.broker_count(), 1);
    }
}
