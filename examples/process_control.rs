//! Process control: the paper's second motivating domain (§6 mentions
//! "financial trading and process control"). Sensors publish telemetry;
//! operators, alarm systems, and historians subscribe along orthogonal
//! dimensions — exactly where content-based beats subject-based pub/sub.
//!
//! Run with: `cargo run --example process_control`

use linkcast::types::{parse_predicate, Event, EventSchema, Value, ValueKind};
use linkcast::{ContentRouter, NetworkBuilder, RoutingFabric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A plant network: one control room broker, three unit brokers.
    let mut builder = NetworkBuilder::new();
    let control_room = builder.add_broker();
    let units: Vec<_> = (0..3)
        .map(|_| {
            let b = builder.add_broker();
            builder.connect(control_room, b, 5.0).unwrap();
            b
        })
        .collect();

    // Clients: one operator console per unit, a plant-wide alarm system
    // and a historian in the control room.
    let operators: Vec<_> = units
        .iter()
        .map(|&u| builder.add_client(u).unwrap())
        .collect();
    let alarms = builder.add_client(control_room)?;
    let historian = builder.add_client(control_room)?;
    let fabric = RoutingFabric::new_all_roots(builder.build()?)?;

    // Telemetry schema: unit, sensor kind, reading, and an alarm flag,
    // factored by unit.
    let schema = EventSchema::builder("telemetry")
        .attribute_with_domain("unit", ValueKind::Int, (0..3).map(Value::Int))
        .attribute("sensor", ValueKind::Str)
        .attribute("reading", ValueKind::Dollar) // fixed-point measurement
        .attribute("critical", ValueKind::Bool)
        .factored(1)
        .build()?;
    let mut router = ContentRouter::new(fabric, schema.clone())?;

    // Operators watch only their own unit (a subject-based system would
    // need one topic per unit...).
    for (unit, &op) in operators.iter().enumerate() {
        router.subscribe(op, parse_predicate(&schema, &format!("unit = {unit}"))?)?;
    }
    // ...but the alarm system cuts across units on the *critical* flag, and
    // the historian samples only high readings — dimensions a topic scheme
    // cannot express without duplicating every publication.
    router.subscribe(alarms, parse_predicate(&schema, "critical = true")?)?;
    router.subscribe(
        historian,
        parse_predicate(&schema, r#"sensor = "temperature" & reading > 90.00"#)?,
    )?;

    // A shift of sensor readings.
    let mut rng = StdRng::seed_from_u64(7);
    let sensors = ["temperature", "pressure", "flow"];
    let mut alarm_count = 0u64;
    let mut history_count = 0u64;
    let mut operator_count = 0u64;
    for _ in 0..5_000 {
        let unit = rng.random_range(0..3);
        let sensor = sensors[rng.random_range(0..3)];
        let reading = rng.random_range(0..12_000); // 0.00 .. 120.00
        let critical = reading > 11_000;
        let event = Event::from_values(
            &schema,
            [
                Value::Int(unit as i64),
                Value::str(sensor),
                Value::Dollar(reading),
                Value::Bool(critical),
            ],
        )?;
        let delivery = router.publish(units[unit], &event)?;
        for r in &delivery.recipients {
            if *r == alarms {
                alarm_count += 1;
            } else if *r == historian {
                history_count += 1;
            } else {
                operator_count += 1;
            }
        }
    }
    println!("operator deliveries:  {operator_count} (unit-scoped)");
    println!("alarm deliveries:     {alarm_count} (critical = true, any unit)");
    println!("historian deliveries: {history_count} (hot temperature readings)");
    assert!(alarm_count > 0 && history_count > 0 && operator_count > 0);
    Ok(())
}
