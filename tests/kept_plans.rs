//! A kept plan is compiled once — each model scan's prompts, templates and
//! the request keys of the prompts it fixes — and its warm runs ask the model
//! exactly what a fresh engine asks, byte for byte: under every strategy,
//! parallelism and packing, and after each input of the compiled form
//! changes (the catalog, the configuration, the model). Checked with a model
//! that records every request it answers.

use std::sync::{Arc, Mutex};

use llmsql_core::Engine;
use llmsql_llm::{CompletionRequest, CompletionResponse, LanguageModel, SimLlm};
use llmsql_types::{
    EngineConfig, ErrorKind, ExecutionMode, LlmFidelity, PromptStrategy, Result, Row,
};
use llmsql_workload::{standard_suite, World, WorldSpec};

/// The simulator, with every request it answers recorded.
struct Recording {
    sim: SimLlm,
    name: &'static str,
    requests: Mutex<Vec<String>>,
}

impl Recording {
    fn over(world: &World, name: &'static str) -> Arc<Self> {
        let sim = SimLlm::new(world.knowledge().unwrap(), LlmFidelity::perfect(), 42);
        Arc::new(Recording {
            sim,
            name,
            requests: Mutex::default(),
        })
    }

    /// The requests answered since the last take.
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.requests.lock().unwrap())
    }
}

impl LanguageModel for Recording {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse> {
        self.requests.lock().unwrap().push(request.prompt.clone());
        self.sim.complete(request)
    }

    fn fingerprint(&self) -> String {
        format!("{}/{}", self.name, self.sim.fingerprint())
    }

    fn relation_cardinality(&self, table: &str) -> Option<u64> {
        self.sim.relation_cardinality(table)
    }
}

fn tiny() -> World {
    World::generate(WorldSpec::tiny()).unwrap()
}

/// The tiny world's relations with three times as many countries: the same
/// schemas, other cardinalities.
fn wider() -> World {
    World::generate(WorldSpec {
        countries: 36,
        ..WorldSpec::tiny()
    })
    .unwrap()
}

fn config(strategy: PromptStrategy, parallelism: usize, batch: usize) -> EngineConfig {
    EngineConfig::default()
        .with_mode(ExecutionMode::LlmOnly)
        .with_fidelity(LlmFidelity::perfect())
        .with_strategy(strategy)
        .with_batch_size(3)
        .with_parallelism(parallelism)
        .with_batch_rows_per_call(batch)
}

/// An engine over `world`'s catalog, through `model`.
fn engine(world: &World, config: EngineConfig, model: &Arc<Recording>) -> Engine {
    let mut engine = Engine::with_catalog(world.catalog.deep_clone().unwrap(), config);
    engine.attach_model(Arc::clone(model) as _).unwrap();
    engine
}

fn texts(world: &World) -> Vec<String> {
    standard_suite(world, 2)
        .into_iter()
        .map(|q| q.sql)
        .collect()
}

/// One pass over `sqls`: each text's rows and prompts rendered.
fn pass(engine: &Engine, sqls: &[String]) -> (Vec<Vec<Row>>, u64) {
    let mut rendered = 0;
    let rows = sqls
        .iter()
        .map(|sql| {
            let result = engine.execute(sql).unwrap();
            rendered += result.metrics.prompts_rendered;
            result.rows().to_vec()
        })
        .collect();
    (rows, rendered)
}

/// What a fresh engine's first pass asks `model`, and its rows.
fn fresh_requests(
    world: &World,
    config: EngineConfig,
    model: &Arc<Recording>,
) -> (Vec<String>, Vec<Vec<Row>>) {
    let fresh = engine(world, config, model);
    let (rows, _) = pass(&fresh, &texts(world));
    (model.take(), rows)
}

/// What `engine`'s kept plans ask `model` once the cache is emptied: two
/// passes keep every text's plan, then the cache is cleared and a third
/// pass is recorded.
fn kept_requests(
    engine: &Engine,
    world: &World,
    model: &Arc<Recording>,
) -> (Vec<String>, Vec<Vec<Row>>) {
    let sqls = texts(world);
    pass(engine, &sqls);
    pass(engine, &sqls);
    engine.client().unwrap().clear_cache();
    model.take();
    let (rows, _) = pass(engine, &sqls);
    (model.take(), rows)
}

#[test]
fn a_kept_plan_asks_what_a_fresh_engine_asks_and_a_warm_one_renders_nothing_it_fixes() {
    let world = tiny();
    for strategy in PromptStrategy::ALL {
        for (parallelism, batch) in [(1, 1), (1, 4), (16, 1), (16, 4)] {
            let at = format!("{strategy:?} at parallelism {parallelism}, {batch} per request");
            let config = config(strategy, parallelism, batch);
            let (expected, expected_rows) =
                fresh_requests(&world, config.clone(), &Recording::over(&world, "sim"));
            assert!(!expected.is_empty(), "{at}");

            let model = Recording::over(&world, "sim");
            let kept = engine(&world, config, &model);
            let (asked, rows) = kept_requests(&kept, &world, &model);
            assert_eq!(asked, expected, "{at}");
            assert_eq!(rows, expected_rows, "{at}");

            // Fully cached: no request, and nothing rendered but the per-key
            // prompts of the tuple strategies, whose keys come from answers.
            // Every request is a hit, billed to its query and to the client
            // alike, whether it travelled as a call or went straight from its
            // kept key to the answer.
            let sqls = texts(&world);
            let mut per_key = 0;
            let hits_before = kept.client().unwrap().usage().cache_hits;
            let mut hits = 0;
            for sql in &sqls {
                let metrics = kept.execute(sql).unwrap().metrics;
                let by_kind = &metrics.llm_calls_by_kind;
                per_key += by_kind.get("lookup").unwrap_or(&0);
                per_key += by_kind.get("filter_check").unwrap_or(&0);
                let requests = metrics.usage.cache_hits;
                assert!(requests > 0 && requests <= metrics.llm_calls(), "{at}");
                assert_eq!(metrics.peak_in_flight > 0, requests > 0, "{at}");
                hits += requests;
            }
            let client_hits = kept.client().unwrap().usage().cache_hits - hits_before;
            assert_eq!(client_hits, hits, "{at}");
            let (warm_rows, rendered) = pass(&kept, &sqls);
            assert!(model.take().is_empty(), "{at}: a warm run called the model");
            assert_eq!(warm_rows, expected_rows, "{at}");
            assert_eq!(rendered, per_key, "{at}");
            if matches!(
                strategy,
                PromptStrategy::BatchedRows | PromptStrategy::FullQuery
            ) {
                assert_eq!(rendered, 0, "{at}");
            }
        }
    }
}

/// Each input of a compiled plan, changed in turn: the kept plans' requests
/// afterwards are a fresh engine's under the changed input.
#[test]
fn a_change_to_any_input_of_a_compiled_plan_is_a_fresh_engines_requests() {
    let world = tiny();
    let config = config(PromptStrategy::BatchedRows, 4, 1);

    // The catalog: a column's description is in every page's prompt.
    let model = Recording::over(&world, "sim");
    let changed = engine(&world, config.clone(), &model);
    kept_requests(&changed, &world, &model);
    let mut schema = changed.catalog().schema_of("countries").unwrap();
    schema.columns[1].description = Some("the continent it lies on".into());
    changed.catalog().drop_table("countries", false).unwrap();
    changed
        .catalog()
        .create_virtual_table(schema.clone())
        .unwrap();
    let fresh_model = Recording::over(&world, "sim");
    let fresh = engine(&world, config.clone(), &fresh_model);
    fresh.catalog().drop_table("countries", false).unwrap();
    fresh.catalog().create_virtual_table(schema).unwrap();
    pass(&fresh, &texts(&world));
    let expected = fresh_model.take();
    assert!(expected
        .iter()
        .any(|r| r.contains("the continent it lies on")));
    assert_eq!(kept_requests(&changed, &world, &model).0, expected);

    // The configuration: the page size is in every page's prompt.
    let model = Recording::over(&world, "sim");
    let mut changed = engine(&world, config.clone(), &model);
    kept_requests(&changed, &world, &model);
    changed.config_mut().batch_size = 5;
    let (expected, _) = fresh_requests(
        &world,
        changed.config().clone(),
        &Recording::over(&world, "sim"),
    );
    assert_eq!(kept_requests(&changed, &world, &model).0, expected);

    // The model: another fingerprint, and a relation three times as wide,
    // which moves the hint every page is planned against.
    let model = Recording::over(&world, "sim");
    let mut changed = engine(&world, config.clone(), &model);
    kept_requests(&changed, &world, &model);
    let wider = wider();
    let other = Recording::over(&wider, "wider");
    changed.attach_model(Arc::clone(&other) as _).unwrap();
    let (expected, expected_rows) =
        fresh_requests(&world, config, &Recording::over(&wider, "wider"));
    let (asked, rows) = kept_requests(&changed, &world, &other);
    assert_eq!(asked, expected);
    assert_eq!(rows, expected_rows);
}

/// A kept plan's runs skip validating the configuration, which only a
/// configuration that passed validation can reach: an invalid one set
/// through `config_mut` empties the plan table, so the next run of a kept
/// text validates and fails as a fresh text does.
#[test]
fn an_invalid_configuration_fails_a_kept_text_as_it_fails_a_fresh_one() {
    let world = tiny();
    let model = Recording::over(&world, "sim");
    let mut kept = engine(&world, config(PromptStrategy::BatchedRows, 1, 1), &model);
    let sql = "SELECT name FROM countries";
    for _ in 0..3 {
        kept.execute(sql).unwrap();
    }
    kept.config_mut().max_scan_rows = 0;
    let err = kept.execute(sql).unwrap_err();
    let mut fresh = engine(&world, config(PromptStrategy::BatchedRows, 1, 1), &model);
    fresh.config_mut().max_scan_rows = 0;
    let expected = fresh.execute(sql).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Config);
    assert_eq!((err.kind, err.message), (expected.kind, expected.message));
}
