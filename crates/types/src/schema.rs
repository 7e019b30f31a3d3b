//! Event schemas (information spaces) and the schema registry.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::{Error, Result, SchemaId, Value, ValueKind};

/// A named, typed attribute of an event schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    name: Arc<str>,
    kind: ValueKind,
    domain: Option<Arc<[Value]>>,
}

impl AttributeDef {
    /// Creates an attribute with an unbounded domain.
    pub fn new(name: impl Into<Arc<str>>, kind: ValueKind) -> Self {
        Self {
            name: name.into(),
            kind,
            domain: None,
        }
    }

    /// Creates an attribute with a finite, enumerated domain.
    ///
    /// Declaring a finite domain lets the link-matching annotator prove
    /// stronger facts: when the value branches of a search-tree node exhaust
    /// the domain, no implicit "unlisted value" alternative is needed and
    /// annotations stay `Yes` instead of degrading to `Maybe`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] if any domain value is not of
    /// `kind`, and [`Error::InvalidSchema`] if the domain is empty or
    /// contains duplicates.
    pub fn with_domain(
        name: impl Into<Arc<str>>,
        kind: ValueKind,
        domain: impl IntoIterator<Item = Value>,
    ) -> Result<Self> {
        let name = name.into();
        let domain: Vec<Value> = domain.into_iter().collect();
        if domain.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "attribute `{name}` declared with an empty domain"
            )));
        }
        for v in &domain {
            if v.kind() != kind {
                return Err(Error::SchemaMismatch {
                    attribute: name.to_string(),
                    expected: kind,
                    actual: v.kind(),
                });
            }
        }
        let mut sorted = domain.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != domain.len() {
            return Err(Error::InvalidSchema(format!(
                "attribute `{name}` declared with duplicate domain values"
            )));
        }
        Ok(Self {
            name,
            kind,
            domain: Some(domain.into()),
        })
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's declared kind.
    pub fn kind(&self) -> ValueKind {
        self.kind
    }

    /// The enumerated domain, if one was declared.
    pub fn domain(&self) -> Option<&[Value]> {
        self.domain.as_deref()
    }
}

impl fmt::Display for AttributeDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.kind)
    }
}

/// The schema of an information space: an ordered tuple of named, typed
/// attributes.
///
/// The paper's running example is the single information space
/// `[issue: string, price: dollar, volume: integer]`.
///
/// A space may declare its leading attributes *factored* (§2.1.1): every
/// search tree over it keeps one subtree per combination of their values
/// and selects it by table lookup instead of testing them. Factored
/// attributes must declare finite domains.
///
/// # Example
///
/// ```
/// use linkcast_types::{EventSchema, ValueKind};
///
/// # fn main() -> Result<(), linkcast_types::Error> {
/// let schema = EventSchema::builder("trades")
///     .attribute("issue", ValueKind::Str)
///     .attribute("price", ValueKind::Dollar)
///     .attribute("volume", ValueKind::Int)
///     .build()?;
/// assert_eq!(schema.arity(), 3);
/// assert_eq!(schema.attribute(1).unwrap().name(), "price");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSchema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug, PartialEq, Eq)]
struct SchemaInner {
    id: SchemaId,
    name: Arc<str>,
    attributes: Vec<AttributeDef>,
    by_name: HashMap<Arc<str>, usize>,
    factored: usize,
}

impl EventSchema {
    /// Starts building a schema with the given information-space name.
    pub fn builder(name: impl Into<Arc<str>>) -> EventSchemaBuilder {
        EventSchemaBuilder {
            id: SchemaId::new(0),
            name: name.into(),
            attributes: Vec::new(),
            factored: 0,
            error: None,
        }
    }

    /// The schema id. Schemas built directly get id 0; a [`SchemaRegistry`]
    /// assigns unique ids.
    pub fn id(&self) -> SchemaId {
        self.inner.id
    }

    /// The information-space name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of attributes in the schema.
    pub fn arity(&self) -> usize {
        self.inner.attributes.len()
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.inner.attributes
    }

    /// The attribute at position `index`, if in range.
    pub fn attribute(&self, index: usize) -> Option<&AttributeDef> {
        self.inner.attributes.get(index)
    }

    /// The factored attributes: a leading run of declaration order, each
    /// with a finite domain. Empty unless the space declares some.
    pub fn factored(&self) -> Range<usize> {
        0..self.inner.factored
    }

    /// Looks up an attribute position by name.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.inner.by_name.get(name).copied()
    }

    /// Returns a copy of this schema with a different id (used by
    /// [`SchemaRegistry`]).
    fn with_id(&self, id: SchemaId) -> Self {
        let inner = &*self.inner;
        EventSchema {
            inner: Arc::new(SchemaInner {
                id,
                name: inner.name.clone(),
                attributes: inner.attributes.clone(),
                by_name: inner.by_name.clone(),
                factored: inner.factored,
            }),
        }
    }

    /// Validates that `index` holds a value of the declared kind.
    ///
    /// # Errors
    ///
    /// [`Error::AttributeOutOfRange`] if `index >= arity()`;
    /// [`Error::SchemaMismatch`] if the value has the wrong kind.
    pub fn check_value(&self, index: usize, value: &Value) -> Result<()> {
        let attr = self.attribute(index).ok_or(Error::AttributeOutOfRange {
            index,
            arity: self.arity(),
        })?;
        if attr.kind() != value.kind() {
            return Err(Error::SchemaMismatch {
                attribute: attr.name().to_string(),
                expected: attr.kind(),
                actual: value.kind(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for EventSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.name())?;
        for (i, a) in self.attributes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

/// Incrementally builds an [`EventSchema`].
#[derive(Debug)]
pub struct EventSchemaBuilder {
    id: SchemaId,
    name: Arc<str>,
    attributes: Vec<AttributeDef>,
    factored: usize,
    error: Option<Error>,
}

impl EventSchemaBuilder {
    /// Appends an attribute with an unbounded domain.
    pub fn attribute(mut self, name: impl Into<Arc<str>>, kind: ValueKind) -> Self {
        self.attributes.push(AttributeDef::new(name, kind));
        self
    }

    /// Appends an attribute with a finite, enumerated domain.
    pub fn attribute_with_domain(
        mut self,
        name: impl Into<Arc<str>>,
        kind: ValueKind,
        domain: impl IntoIterator<Item = Value>,
    ) -> Self {
        match AttributeDef::with_domain(name, kind, domain) {
            Ok(def) => self.attributes.push(def),
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Appends a pre-built attribute definition.
    pub fn attribute_def(mut self, def: AttributeDef) -> Self {
        self.attributes.push(def);
        self
    }

    /// Declares the first `levels` attributes, in declaration order,
    /// factored (§2.1.1). `0`, the default, factors nothing.
    pub fn factored(mut self, levels: usize) -> Self {
        self.factored = levels;
        self
    }

    /// Finalizes the schema.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSchema`] if the schema has no attributes or duplicate
    /// attribute names, if it factors more attributes than it has or one
    /// without a finite domain, or if any `attribute_with_domain` call
    /// failed.
    pub fn build(self) -> Result<EventSchema> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.attributes.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "schema `{}` has no attributes",
                self.name
            )));
        }
        let factored = self.attributes.get(..self.factored).ok_or_else(|| {
            Error::InvalidSchema(format!(
                "schema `{}` factors {} attributes of {}",
                self.name,
                self.factored,
                self.attributes.len()
            ))
        })?;
        if let Some(open) = factored.iter().find(|a| a.domain().is_none()) {
            return Err(Error::InvalidSchema(format!(
                "attribute `{}` is factored but declares no finite domain",
                open.name()
            )));
        }
        let mut by_name = HashMap::with_capacity(self.attributes.len());
        for (i, attr) in self.attributes.iter().enumerate() {
            if by_name.insert(attr.name.clone(), i).is_some() {
                return Err(Error::InvalidSchema(format!(
                    "schema `{}` declares attribute `{}` twice",
                    self.name,
                    attr.name()
                )));
            }
        }
        Ok(EventSchema {
            inner: Arc::new(SchemaInner {
                id: self.id,
                name: self.name,
                attributes: self.attributes,
                by_name,
                factored: self.factored,
            }),
        })
    }
}

/// A registry of information spaces, mapping schema names and ids to
/// [`EventSchema`]s.
///
/// A broker network "may implement multiple information spaces by specifying
/// an event schema (one per information space)" (§4.2); the registry is the
/// shared catalog each broker consults when parsing events and
/// subscriptions.
#[derive(Debug, Default)]
pub struct SchemaRegistry {
    schemas: Vec<EventSchema>,
    by_name: HashMap<Arc<str>, SchemaId>,
}

impl SchemaRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a schema, assigning it a fresh id.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSchema`] if a schema with the same name is already
    /// registered.
    pub fn register(&mut self, schema: EventSchema) -> Result<SchemaId> {
        let name: Arc<str> = schema.name().into();
        if self.by_name.contains_key(&name) {
            return Err(Error::InvalidSchema(format!(
                "information space `{name}` already registered"
            )));
        }
        let id = SchemaId::new(self.schemas.len() as u32);
        self.schemas.push(schema.with_id(id));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Looks up a schema by id.
    pub fn get(&self, id: SchemaId) -> Option<&EventSchema> {
        self.schemas.get(id.index())
    }

    /// Looks up a schema by information-space name.
    pub fn get_by_name(&self, name: &str) -> Option<&EventSchema> {
        self.by_name.get(name).and_then(|id| self.get(*id))
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Iterates over all registered schemas.
    pub fn iter(&self) -> impl Iterator<Item = &EventSchema> {
        self.schemas.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trades() -> EventSchema {
        EventSchema::builder("trades")
            .attribute("issue", ValueKind::Str)
            .attribute("price", ValueKind::Dollar)
            .attribute("volume", ValueKind::Int)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_indexes_attributes() {
        let s = trades();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attribute_index("price"), Some(1));
        assert_eq!(s.attribute_index("nope"), None);
        assert_eq!(s.attribute(2).unwrap().kind(), ValueKind::Int);
        assert_eq!(s.attribute(3), None);
    }

    #[test]
    fn display_lists_attributes() {
        assert_eq!(
            trades().to_string(),
            "trades [issue: string, price: dollar, volume: integer]"
        );
    }

    #[test]
    fn rejects_empty_schema() {
        let err = EventSchema::builder("empty").build().unwrap_err();
        assert!(matches!(err, Error::InvalidSchema(_)));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = EventSchema::builder("dup")
            .attribute("a", ValueKind::Int)
            .attribute("a", ValueKind::Str)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSchema(_)));
    }

    #[test]
    fn check_value_enforces_kinds() {
        let s = trades();
        assert!(s.check_value(0, &Value::str("IBM")).is_ok());
        assert!(matches!(
            s.check_value(0, &Value::Int(5)),
            Err(Error::SchemaMismatch { .. })
        ));
        assert!(matches!(
            s.check_value(9, &Value::Int(5)),
            Err(Error::AttributeOutOfRange { .. })
        ));
    }

    #[test]
    fn domains_are_validated() {
        let ok = AttributeDef::with_domain("a", ValueKind::Int, (0..5).map(Value::Int));
        assert_eq!(ok.unwrap().domain().unwrap().len(), 5);

        let wrong_kind = AttributeDef::with_domain("a", ValueKind::Int, [Value::str("x")]);
        assert!(matches!(wrong_kind, Err(Error::SchemaMismatch { .. })));

        let empty = AttributeDef::with_domain("a", ValueKind::Int, []);
        assert!(matches!(empty, Err(Error::InvalidSchema(_))));

        let dup = AttributeDef::with_domain("a", ValueKind::Int, [Value::Int(1), Value::Int(1)]);
        assert!(matches!(dup, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn builder_with_bad_domain_fails_at_build() {
        let err = EventSchema::builder("s")
            .attribute_with_domain("a", ValueKind::Int, [])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSchema(_)));
    }

    #[test]
    fn factoring_is_declared_on_a_leading_run_of_finite_domains() {
        let domain = || (0..3).map(Value::Int);
        let space = |levels| {
            EventSchema::builder("s")
                .attribute_with_domain("a", ValueKind::Int, domain())
                .attribute_with_domain("b", ValueKind::Int, domain())
                .attribute("c", ValueKind::Int)
                .factored(levels)
                .build()
        };
        assert_eq!(trades().factored(), 0..0);
        assert_eq!(space(0).unwrap().factored(), 0..0);
        assert_eq!(space(2).unwrap().factored(), 0..2);
        // `c` has no finite domain, and there is no fourth attribute.
        for levels in [3, 4] {
            let err = space(levels).unwrap_err();
            assert!(matches!(err, Error::InvalidSchema(_)), "{levels}: {err}");
        }
        // A registered copy keeps the declaration.
        let mut reg = SchemaRegistry::new();
        let id = reg.register(space(1).unwrap()).unwrap();
        assert_eq!(reg.get(id).unwrap().factored(), 0..1);
    }

    #[test]
    fn registry_assigns_ids_and_rejects_duplicates() {
        let mut reg = SchemaRegistry::new();
        assert!(reg.is_empty());
        let id = reg.register(trades()).unwrap();
        assert_eq!(id, SchemaId::new(0));
        assert_eq!(reg.get(id).unwrap().id(), id);
        assert_eq!(reg.get_by_name("trades").unwrap().id(), id);
        assert_eq!(reg.len(), 1);
        assert!(reg.register(trades()).is_err());

        let other = EventSchema::builder("quotes")
            .attribute("bid", ValueKind::Dollar)
            .build()
            .unwrap();
        let id2 = reg.register(other).unwrap();
        assert_eq!(id2, SchemaId::new(1));
        assert_eq!(reg.iter().count(), 2);
    }
}
