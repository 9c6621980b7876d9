//! A relation's cardinality hint is asked of the model once per (client,
//! table) and every scan, plan and EXPLAIN reads that one answer — checked by
//! counting the asks, never by timing them.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use llmsql_core::Engine;
use llmsql_llm::{
    CallHandle, CompletionRequest, CompletionResponse, KnowledgeBase, LanguageModel, SimLlm,
};
use llmsql_sched::{QueryScheduler, QueryTicket};
use llmsql_store::Catalog;
use llmsql_types::{
    Column, DataType, EngineConfig, ExecutionMode, LlmFidelity, Priority, PromptStrategy, Result,
    Row, SchedConfig, Schema, Value,
};

const PAGE: usize = 10;

/// How a [`Counted`] model answers the cardinality question.
enum Hint {
    /// As the simulator does: exact and stable.
    Exact,
    /// Never.
    Withheld,
    /// Breaking the trait's contract: ten more rows at every ask.
    Drifting,
}

/// The simulator, with the `relation_cardinality` asks counted per table.
struct Counted {
    sim: SimLlm,
    hint: Hint,
    asks: Mutex<BTreeMap<String, u64>>,
}

impl Counted {
    fn new(sim: SimLlm, hint: Hint) -> Arc<Self> {
        Arc::new(Counted {
            sim,
            hint,
            asks: Mutex::default(),
        })
    }

    fn asks(&self) -> Vec<(String, u64)> {
        self.asks.lock().unwrap().clone().into_iter().collect()
    }
}

impl LanguageModel for Counted {
    fn name(&self) -> String {
        self.sim.name()
    }
    fn fingerprint(&self) -> String {
        self.sim.fingerprint()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.sim.complete(request)
    }
    fn submit(&self, request: &CompletionRequest) -> CallHandle {
        self.sim.submit(request)
    }
    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        let mut asks = self.asks.lock().unwrap();
        let asked = asks.entry(table.to_string()).or_default();
        *asked += 1;
        let exact = self.sim.relation_cardinality(table);
        match self.hint {
            Hint::Exact => exact,
            Hint::Withheld => None,
            Hint::Drifting => exact.map(|rows| rows + 10 * (*asked - 1)),
        }
    }
}

fn countries_schema() -> Schema {
    Schema::virtual_table(
        "countries",
        vec![
            Column::new("name", DataType::Text).primary_key(),
            Column::new("region", DataType::Text),
            Column::new("population", DataType::Int),
        ],
    )
}

fn cities_schema() -> Schema {
    Schema::virtual_table(
        "cities",
        vec![
            Column::new("name", DataType::Text).primary_key(),
            Column::new("country", DataType::Text),
        ],
    )
}

/// The simulated model over `countries` countries in five regions and
/// `cities` cities, one per country round-robin.
fn sim(countries: usize, cities: usize, fidelity: LlmFidelity, latency_ms: f64) -> SimLlm {
    const REGIONS: [&str; 5] = ["Europe", "Asia", "Africa", "Americas", "Oceania"];
    let mut kb = KnowledgeBase::new();
    let country = |i: usize| {
        Row::new(vec![
            Value::Text(format!("Country {i:03}")),
            Value::Text(REGIONS[i % REGIONS.len()].to_string()),
            Value::Int(100_000 + 37_219 * i as i64),
        ])
    };
    kb.add_table(countries_schema(), (0..countries).map(country).collect());
    let city = |i: usize| {
        Row::new(vec![
            Value::Text(format!("City {i:03}")),
            Value::Text(format!("Country {:03}", i % countries)),
        ])
    };
    kb.add_table(cities_schema(), (0..cities).map(city).collect());
    SimLlm::new(kb.into_shared(), fidelity, 11).with_simulated_latency_ms(latency_ms)
}

/// A paged (`BatchedRows`) LLM-only engine over both virtual relations,
/// prompt cache off so that every scan really pages.
fn engine(model: Arc<dyn LanguageModel>, parallelism: usize) -> Engine {
    let catalog = Catalog::new();
    catalog.create_virtual_table(countries_schema()).unwrap();
    catalog.create_virtual_table(cities_schema()).unwrap();
    let mut config = EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_strategy(PromptStrategy::BatchedRows)
        .with_batch_size(PAGE)
        .with_parallelism(parallelism);
    config.max_scan_rows = 500;
    config.enable_prompt_cache = false;
    let mut engine = Engine::with_catalog(catalog, config);
    engine.attach_model(model).unwrap();
    engine
}

/// 50 statements over the two relations: scans, filters, a join, a self-join,
/// an aggregate and EXPLAINs.
fn fifty_queries() -> Vec<String> {
    let shapes = [
        "SELECT name, population FROM countries".to_string(),
        "SELECT name FROM cities".to_string(),
        "SELECT name FROM countries WHERE region = 'Asia'".to_string(),
        "SELECT a.name, b.name FROM countries AS a JOIN countries AS b \
         ON a.population = b.population WHERE a.region = 'Europe'"
            .to_string(),
        "SELECT c.name, ci.name FROM countries AS c JOIN cities AS ci ON ci.country = c.name"
            .to_string(),
        "EXPLAIN SELECT name FROM countries WHERE population > 500000".to_string(),
        "SELECT region, COUNT(*) FROM countries GROUP BY region".to_string(),
        "EXPLAIN ANALYZE SELECT name FROM cities".to_string(),
        "SELECT name FROM cities LIMIT 7".to_string(),
    ];
    let mut queries: Vec<String> = shapes.iter().cycle().take(49).cloned().collect();
    queries.push("SELECT name FROM countries WHERE population > 123456".to_string());
    queries
}

/// What [`Counted::asks`] reads when each relation was asked about once.
fn once_each() -> Vec<(String, u64)> {
    vec![("cities".to_string(), 1), ("countries".to_string(), 1)]
}

#[test]
fn fifty_queries_ask_the_model_once_per_table() {
    let model = Counted::new(sim(45, 30, LlmFidelity::perfect(), 0.0), Hint::Exact);
    let engine = engine(Arc::clone(&model) as Arc<dyn LanguageModel>, 4);
    assert!(model.asks().is_empty(), "nothing is asked before a scan");
    for sql in fifty_queries() {
        engine
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    assert_eq!(model.asks(), once_each());
    // The answer held is the model's: scans end where the relation does.
    let all = engine.execute("SELECT name FROM countries").unwrap();
    assert_eq!(all.row_count(), 45);
    assert_eq!(all.metrics.llm_calls(), 5, "45 rows in pages of 10");
}

#[test]
fn a_scheduled_burst_asks_once_per_table_and_changes_nothing() {
    let queries = fifty_queries();
    let standalone_model = Counted::new(sim(45, 30, LlmFidelity::perfect(), 1.0), Hint::Exact);
    let standalone = engine(Arc::clone(&standalone_model) as Arc<dyn LanguageModel>, 4);
    let expected: Vec<_> = queries
        .iter()
        .map(|sql| {
            let r = standalone.execute(sql).unwrap();
            (r.rows().to_vec(), r.metrics.llm_calls_by_kind)
        })
        .collect();

    let model = Counted::new(sim(45, 30, LlmFidelity::perfect(), 1.0), Hint::Exact);
    let sched = QueryScheduler::new(
        engine(Arc::clone(&model) as Arc<dyn LanguageModel>, 4),
        SchedConfig::default()
            .with_workers(4)
            .with_llm_slots(16)
            .paused(),
    )
    .unwrap();
    // A burst of identical scans first, so all four workers meet the same
    // unasked table at once; then the mixed fifty.
    let burst = std::iter::repeat_n(&queries[0], 8);
    let tickets: Vec<QueryTicket> = burst
        .chain(&queries)
        .map(|sql| sched.submit("tenant", Priority::NORMAL, sql).unwrap())
        .collect();
    sched.resume();
    let outcomes: Vec<_> = tickets.into_iter().map(QueryTicket::wait).collect();

    assert_eq!(model.asks(), once_each());
    assert_eq!(standalone_model.asks(), once_each());
    let statements = std::iter::repeat_n(&queries[0], 8).chain(&queries);
    let expected = std::iter::repeat_n(&expected[0], 8).chain(&expected);
    for ((sql, outcome), (rows, calls)) in statements.zip(&outcomes).zip(expected) {
        let result = outcome.result.as_ref().unwrap();
        // ANALYZE prints wall times.
        if !sql.starts_with("EXPLAIN ANALYZE") {
            assert_eq!(result.rows(), &rows[..], "{sql}");
        }
        assert_eq!(&result.metrics.llm_calls_by_kind, calls, "{sql}");
    }
}

#[test]
fn no_hint_is_asked_for_once_and_remembered() {
    let model = Counted::new(sim(45, 30, LlmFidelity::perfect(), 0.0), Hint::Withheld);
    let engine = engine(Arc::clone(&model) as Arc<dyn LanguageModel>, 1);
    for _ in 0..3 {
        let r = engine.execute("SELECT name FROM countries").unwrap();
        assert_eq!(r.row_count(), 45);
        // Unhinted, the scan finds the end by its short fifth page.
        assert_eq!(r.metrics.llm_calls(), 5);
        engine
            .execute("EXPLAIN SELECT name FROM countries")
            .unwrap();
    }
    assert_eq!(model.asks(), vec![("countries".to_string(), 1)]);
    assert_eq!(
        engine.client().unwrap().relation_cardinality("countries"),
        None
    );
}

#[test]
fn a_newly_attached_model_is_asked_afresh() {
    let small = Counted::new(sim(30, 5, LlmFidelity::perfect(), 0.0), Hint::Exact);
    let large = Counted::new(sim(50, 5, LlmFidelity::perfect(), 0.0), Hint::Exact);
    let mut engine = engine(Arc::clone(&small) as Arc<dyn LanguageModel>, 4);
    let sql = "SELECT name FROM countries";
    assert_eq!(engine.execute(sql).unwrap().row_count(), 30);
    engine
        .attach_model(Arc::clone(&large) as Arc<dyn LanguageModel>)
        .unwrap();
    // A hint kept from the first model would end this scan at row 30.
    let r = engine.execute(sql).unwrap();
    assert_eq!(r.row_count(), 50);
    assert_eq!(r.metrics.llm_calls(), 5);
    assert_eq!(small.asks(), vec![("countries".to_string(), 1)]);
    assert_eq!(large.asks(), vec![("countries".to_string(), 1)]);
}

/// The `est rows≈N` of the plan's scan line.
fn explained_scan_rows(engine: &Engine, sql: &str) -> u64 {
    let plan = engine
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .plan
        .unwrap();
    let scan = plan.lines().find(|l| l.contains("LlmScan")).unwrap();
    let digits = scan.split("est rows≈").nth(1).unwrap();
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().unwrap()
}

#[test]
fn explain_and_the_scan_window_read_the_same_number() {
    // A noisy model's relation is not the ground truth's 80 rows, and this
    // one would answer ten more at every ask: whatever it said first is what
    // EXPLAIN prints and what sizes the first window, for good.
    let noisy = sim(80, 5, LlmFidelity::weak(), 5.0);
    let observed = noisy.relation_cardinality("countries").unwrap();
    assert_ne!(observed, 80);
    let model = Counted::new(noisy, Hint::Drifting);
    let engine = engine(Arc::clone(&model) as Arc<dyn LanguageModel>, 16);
    let sql = "SELECT name, population FROM countries";
    let pages = observed.div_ceil(PAGE as u64);
    assert!((2..16).contains(&pages), "{pages} pages fit one window");
    for round in 0..3 {
        assert_eq!(explained_scan_rows(&engine, sql), observed, "round {round}");
        let r = engine.execute(sql).unwrap();
        // W₀ = the estimated pages: all of them fly in the first round trip,
        // and none past the hint is ever planned.
        assert_eq!(r.metrics.peak_in_flight, pages, "round {round}");
        assert_eq!(r.metrics.llm_calls(), pages, "round {round}");
    }
    assert_eq!(model.asks(), vec![("countries".to_string(), 1)]);
}
