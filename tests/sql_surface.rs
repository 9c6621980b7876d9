//! Integration coverage of the SQL surface: every supported construct parsed,
//! planned and executed end to end in Traditional mode, checked against
//! hand-computed answers.

use llmsql_core::{Engine, EngineConfig, ExecutionMode, Value};
use llmsql_types::{LlmFidelity, PromptStrategy};
use llmsql_workload::{World, WorldSpec};

fn engine() -> Engine {
    let e = Engine::new(EngineConfig::default().with_mode(ExecutionMode::Traditional));
    e.execute_script(
        "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT NOT NULL, budget FLOAT);
         CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept_id INTEGER, salary INTEGER, hired INTEGER);
         INSERT INTO dept VALUES (1, 'engineering', 1000.5), (2, 'sales', 500.0), (3, 'research', 750.25);
         INSERT INTO emp VALUES
            (1, 'ada', 1, 120, 2015),
            (2, 'grace', 1, 130, 2012),
            (3, 'alan', 2, 90, 2018),
            (4, 'edsger', 3, 110, 2010),
            (5, 'barbara', 1, 125, 2020),
            (6, 'donald', NULL, 95, 2016);",
    )
    .unwrap();
    e
}

fn ints(e: &Engine, sql: &str) -> Vec<i64> {
    e.execute(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect()
}

fn texts(e: &Engine, sql: &str) -> Vec<String> {
    e.execute(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(0).to_display_string())
        .collect()
}

#[test]
fn predicates_and_ordering() {
    let e = engine();
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp WHERE salary >= 120 ORDER BY salary DESC"
        ),
        vec!["grace", "barbara", "ada"]
    );
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp WHERE salary BETWEEN 90 AND 110 ORDER BY name"
        ),
        vec!["alan", "donald", "edsger"]
    );
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp WHERE name LIKE '%a_a%' ORDER BY name"
        ),
        vec!["ada", "alan", "barbara"]
    );
    assert_eq!(
        texts(&e, "SELECT name FROM emp WHERE dept_id IS NULL"),
        vec!["donald"]
    );
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp WHERE dept_id IN (2, 3) ORDER BY name"
        ),
        vec!["alan", "edsger"]
    );
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp WHERE NOT (salary > 100) AND dept_id IS NOT NULL"
        ),
        vec!["alan"]
    );
}

#[test]
fn arithmetic_case_cast_concat() {
    let e = engine();
    assert_eq!(
        ints(&e, "SELECT salary * 2 + 1 FROM emp WHERE name = 'ada'"),
        vec![241]
    );
    let r = e
        .execute("SELECT CASE WHEN salary >= 120 THEN 'senior' ELSE 'junior' END FROM emp WHERE name = 'alan'")
        .unwrap();
    assert_eq!(r.scalar(), Some(Value::Text("junior".into())));
    let r = e
        .execute("SELECT CAST(budget AS INTEGER) FROM dept WHERE name = 'research'")
        .unwrap();
    assert_eq!(r.scalar(), Some(Value::Int(750)));
    let r = e
        .execute("SELECT name || '@corp' FROM emp WHERE id = 1")
        .unwrap();
    assert_eq!(r.scalar(), Some(Value::Text("ada@corp".into())));
}

#[test]
fn integer_extremes_give_an_answer_never_a_panic() {
    let e = engine();
    let scalar = |sql: &str| e.execute(sql).unwrap().scalar();
    const MIN: &str = "(-9223372036854775807 - 1)";
    // The one remainder and the one negation i64 cannot represent wrap, as
    // `+ - *` do; `/` is a float division and cannot overflow.
    assert_eq!(scalar(&format!("SELECT {MIN} % -1")), Some(Value::Int(0)));
    assert_eq!(
        scalar(&format!("SELECT -{MIN}")),
        Some(Value::Int(i64::MIN))
    );
    assert_eq!(
        scalar(&format!("SELECT {MIN} / -1")),
        Some(Value::Float(9_223_372_036_854_775_808.0))
    );
    assert_eq!(scalar("SELECT 7 / 2"), Some(Value::Float(3.5)));
    assert_eq!(scalar("SELECT 7 % 0"), Some(Value::Null));
    assert_eq!(scalar("SELECT 7 / 0"), Some(Value::Null));

    // An integer SUM wraps as `+` does, and the model asked for the whole
    // query in one prompt sums as the engine does.
    let w = World::generate(WorldSpec {
        countries: 15,
        cities_per_country: 1,
        people: 0,
        movies: 0,
        seed: 41,
    })
    .unwrap();
    let one_shot = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::FullQuery)
        .with_fidelity(LlmFidelity::perfect());
    let model = w.subject_engine(one_shot).unwrap();
    let oracle = w.oracle_engine();
    let answers = [
        ("SUM", Value::Int(i64::MAX - 14)),
        ("AVG", Value::Float(i64::MAX as f64)),
    ];
    for (aggregate, expected) in answers {
        let sql =
            format!("SELECT {aggregate}(9223372036854775807 + population * 0) FROM countries");
        assert_eq!(
            oracle.execute(&sql).unwrap().scalar(),
            Some(expected.clone())
        );
        assert_eq!(
            model.execute(&sql).unwrap().scalar(),
            Some(expected),
            "{sql}"
        );
    }
}

#[test]
fn joins_inner_left_right_cross() {
    let e = engine();
    // inner join drops donald (NULL dept)
    assert_eq!(
        ints(
            &e,
            "SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept_id = d.id"
        ),
        vec![5]
    );
    // left join keeps him
    assert_eq!(
        ints(
            &e,
            "SELECT COUNT(*) FROM emp e LEFT JOIN dept d ON e.dept_id = d.id"
        ),
        vec![6]
    );
    // right join keeps every department even if we filter employees
    assert_eq!(
        ints(
            &e,
            "SELECT COUNT(*) FROM emp e RIGHT JOIN dept d ON e.dept_id = d.id AND e.salary > 1000"
        ),
        vec![3]
    );
    assert_eq!(
        ints(&e, "SELECT COUNT(*) FROM emp CROSS JOIN dept"),
        vec![18]
    );
    // join + residual predicate + projection from both sides
    assert_eq!(
        texts(
            &e,
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id AND d.budget > 700 ORDER BY e.name"
        ),
        vec!["ada", "barbara", "edsger", "grace"]
    );
}

#[test]
fn aggregation_grouping_having() {
    let e = engine();
    let r = e
        .execute(
            "SELECT d.name, COUNT(*) AS headcount, AVG(e.salary) AS avg_salary
             FROM emp e JOIN dept d ON e.dept_id = d.id
             GROUP BY d.name HAVING COUNT(*) >= 1 ORDER BY headcount DESC, d.name",
        )
        .unwrap();
    assert_eq!(r.row_count(), 3);
    assert_eq!(r.rows()[0].get(0), &Value::Text("engineering".into()));
    assert_eq!(r.rows()[0].get(1), &Value::Int(3));
    assert_eq!(r.rows()[0].get(2), &Value::Float(125.0));

    assert_eq!(ints(&e, "SELECT COUNT(*) FROM emp"), vec![6]);
    assert_eq!(ints(&e, "SELECT COUNT(DISTINCT dept_id) FROM emp"), vec![3]);
    assert_eq!(ints(&e, "SELECT MIN(hired) FROM emp"), vec![2010]);
    assert_eq!(
        ints(&e, "SELECT MAX(salary) FROM emp WHERE dept_id = 2"),
        vec![90]
    );
    assert_eq!(ints(&e, "SELECT SUM(salary) FROM emp"), vec![670]);
}

#[test]
fn distinct_limit_offset_subquery() {
    let e = engine();
    assert_eq!(
        ints(
            &e,
            "SELECT DISTINCT dept_id FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id"
        )
        .len(),
        3
    );
    assert_eq!(
        texts(
            &e,
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1"
        ),
        vec!["barbara", "ada"]
    );
    assert_eq!(
        texts(
            &e,
            "SELECT rich.name FROM (SELECT name, salary FROM emp WHERE salary > 100) AS rich \
             WHERE rich.salary < 130 ORDER BY rich.name"
        ),
        vec!["ada", "barbara", "edsger"]
    );
}

#[test]
fn describe_explain_and_errors() {
    let e = engine();
    let d = e.execute("DESCRIBE dept").unwrap();
    assert_eq!(d.row_count(), 3);
    let x = e
        .execute("EXPLAIN SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id")
        .unwrap();
    let plan = x.plan.unwrap();
    assert!(plan.contains("JOIN"));
    assert!(plan.contains("Scan emp"));

    assert!(e.execute("SELECT nope FROM emp").is_err());
    assert!(e.execute("SELECT * FROM missing_table").is_err());
    assert!(e.execute("SELECT name FROM emp WHERE").is_err());
    assert!(e
        .execute("INSERT INTO dept VALUES (1, 'dup', 0.0)")
        .is_err());
}

#[test]
fn insert_update_visibility_and_null_handling() {
    let e = engine();
    e.execute("INSERT INTO emp (id, name, salary) VALUES (7, 'tony', 80)")
        .unwrap();
    assert_eq!(ints(&e, "SELECT COUNT(*) FROM emp"), vec![7]);
    // NULL dept_id does not join
    assert_eq!(
        ints(
            &e,
            "SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept_id = d.id"
        ),
        vec![5]
    );
    // aggregates ignore NULL inputs
    assert_eq!(ints(&e, "SELECT COUNT(dept_id) FROM emp"), vec![5]);
    // three-valued logic: NULL <> 1 is unknown, row not returned
    assert_eq!(
        texts(&e, "SELECT name FROM emp WHERE dept_id <> 1 ORDER BY name"),
        vec!["alan", "edsger"]
    );
}
