//! Synthetic world-knowledge generation.
//!
//! The paper evaluates on factual relations a commercial LLM knows from
//! pre-training (countries, cities, people, movies). We cannot ship that
//! proprietary knowledge, so the workload generator builds a synthetic world
//! with the same relational shape — entities with textual keys, categorical
//! and numeric attributes, and foreign-key relationships with realistic
//! fan-out — and registers it both as the ground-truth relational store and
//! as the simulated model's knowledge base (see DESIGN.md, substitution
//! table).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmsql_core::Engine;
use llmsql_llm::KnowledgeBase;
use llmsql_store::Catalog;
use llmsql_types::{Column, DataType, EngineConfig, ExecutionMode, Result, Row, Schema, Value};

/// Size and seed of the generated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldSpec {
    /// Number of countries.
    pub countries: usize,
    /// Cities per country.
    pub cities_per_country: usize,
    /// Number of people.
    pub people: usize,
    /// Number of movies.
    pub movies: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            countries: 60,
            cities_per_country: 4,
            people: 120,
            movies: 80,
            seed: 2024,
        }
    }
}

impl WorldSpec {
    /// A small world for unit tests.
    pub fn tiny() -> Self {
        WorldSpec {
            countries: 12,
            cities_per_country: 2,
            people: 20,
            movies: 15,
            seed: 7,
        }
    }
}

/// The generated world: a materialized ground-truth catalog.
pub struct World {
    /// The ground-truth catalog (all tables materialized).
    pub catalog: Catalog,
    /// The spec it was generated from.
    pub spec: WorldSpec,
}

/// The regions countries are assigned to.
pub const REGIONS: [&str; 5] = ["Europe", "Asia", "Africa", "Americas", "Oceania"];
/// Professions used for people.
pub const PROFESSIONS: [&str; 6] = [
    "scientist",
    "writer",
    "politician",
    "athlete",
    "musician",
    "engineer",
];
/// Movie genres.
pub const GENRES: [&str; 5] = ["drama", "comedy", "documentary", "thriller", "animation"];

const SYLLABLES: [&str; 16] = [
    "al", "ber", "cor", "dan", "el", "fir", "gor", "han", "is", "jor", "kal", "lun", "mar", "nor",
    "os", "per",
];

fn proper_name(rng: &mut StdRng, syllables: usize, suffix: &str) -> String {
    let mut s = String::new();
    for _ in 0..syllables {
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    let mut chars = s.chars();
    let first = chars.next().unwrap_or('X').to_ascii_uppercase();
    format!("{first}{}{suffix}", chars.as_str())
}

/// Make a generated name unique by appending a counter on collision.
fn unique(name: String, used: &mut std::collections::HashSet<String>) -> String {
    if used.insert(name.clone()) {
        return name;
    }
    let mut i = 2;
    loop {
        let candidate = format!("{name} {i}");
        if used.insert(candidate.clone()) {
            return candidate;
        }
        i += 1;
    }
}

impl World {
    /// Generate a world.
    pub fn generate(spec: WorldSpec) -> Result<World> {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let catalog = Catalog::new();

        // countries ---------------------------------------------------------
        let countries_schema = Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text)
                    .primary_key()
                    .with_description("the short English name of the country"),
                Column::new("region", DataType::Text)
                    .with_description("the continent or world region"),
                Column::new("capital", DataType::Text).with_description("the capital city"),
                Column::new("population", DataType::Int).with_description("the total population"),
                Column::new("area_km2", DataType::Float)
                    .with_description("the land area in square kilometres"),
                Column::new("gdp_usd", DataType::Int)
                    .with_description("the gross domestic product in US dollars"),
            ],
        )
        .with_description("countries of the synthetic world atlas");
        let countries = catalog.create_table(countries_schema)?;

        let mut used_names = std::collections::HashSet::new();
        let mut country_names = Vec::with_capacity(spec.countries);
        let mut capitals = Vec::with_capacity(spec.countries);
        for _ in 0..spec.countries {
            let name = unique(proper_name(&mut rng, 2, "ia"), &mut used_names);
            let capital = unique(proper_name(&mut rng, 2, " City"), &mut used_names);
            let region = REGIONS[rng.gen_range(0..REGIONS.len())];
            let population = rng.gen_range(100_000i64..200_000_000);
            let area = rng.gen_range(1_000.0f64..2_000_000.0);
            let gdp = population * rng.gen_range(1_000i64..60_000);
            countries.insert(Row::new(vec![
                name.clone().into(),
                region.into(),
                capital.clone().into(),
                Value::Int(population),
                Value::Float((area * 10.0).round() / 10.0),
                Value::Int(gdp),
            ]))?;
            country_names.push(name);
            capitals.push(capital);
        }

        // cities ------------------------------------------------------------
        let cities_schema = Schema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text)
                    .primary_key()
                    .with_description("the city name"),
                Column::new("country", DataType::Text)
                    .with_description("the country the city belongs to"),
                Column::new("population", DataType::Int).with_description("the city population"),
                Column::new("is_capital", DataType::Bool)
                    .with_description("whether the city is the national capital"),
            ],
        )
        .with_description("major cities of the synthetic world atlas");
        let cities = catalog.create_table(cities_schema)?;
        for (ci, country) in country_names.iter().enumerate() {
            for c in 0..spec.cities_per_country {
                let (name, is_capital) = if c == 0 {
                    (capitals[ci].clone(), true)
                } else {
                    (
                        unique(proper_name(&mut rng, 2, "ville"), &mut used_names),
                        false,
                    )
                };
                let population = rng.gen_range(20_000i64..15_000_000);
                cities.insert(Row::new(vec![
                    name.into(),
                    country.clone().into(),
                    Value::Int(population),
                    Value::Bool(is_capital),
                ]))?;
            }
        }

        // people --------------------------------------------------------------
        let people_schema = Schema::new(
            "people",
            vec![
                Column::new("name", DataType::Text)
                    .primary_key()
                    .with_description("the person's full name"),
                Column::new("birth_year", DataType::Int).with_description("the year of birth"),
                Column::new("nationality", DataType::Text)
                    .with_description("the country of citizenship"),
                Column::new("profession", DataType::Text).with_description("the main profession"),
            ],
        )
        .with_description("notable people of the synthetic world");
        let people = catalog.create_table(people_schema)?;
        let mut person_names = Vec::with_capacity(spec.people);
        for _ in 0..spec.people {
            let name = unique(
                format!(
                    "{} {}",
                    proper_name(&mut rng, 2, ""),
                    proper_name(&mut rng, 2, "son")
                ),
                &mut used_names,
            );
            let birth_year = rng.gen_range(1920i64..2005);
            let nationality = country_names[rng.gen_range(0..country_names.len())].clone();
            let profession = PROFESSIONS[rng.gen_range(0..PROFESSIONS.len())];
            people.insert(Row::new(vec![
                name.clone().into(),
                Value::Int(birth_year),
                nationality.into(),
                profession.into(),
            ]))?;
            person_names.push(name);
        }

        // movies --------------------------------------------------------------
        let movies_schema = Schema::new(
            "movies",
            vec![
                Column::new("title", DataType::Text)
                    .primary_key()
                    .with_description("the movie title"),
                Column::new("year", DataType::Int).with_description("the release year"),
                Column::new("director", DataType::Text)
                    .with_description("the director's full name"),
                Column::new("genre", DataType::Text).with_description("the primary genre"),
                Column::new("rating", DataType::Float)
                    .with_description("the average critic rating from 0 to 10"),
                Column::new("country", DataType::Text)
                    .with_description("the country of production"),
            ],
        )
        .with_description("feature films of the synthetic world");
        let movies = catalog.create_table(movies_schema)?;
        for _ in 0..spec.movies {
            let title = unique(
                format!(
                    "The {} of {}",
                    proper_name(&mut rng, 2, ""),
                    proper_name(&mut rng, 2, "a")
                ),
                &mut used_names,
            );
            let year = rng.gen_range(1960i64..2024);
            let director = person_names[rng.gen_range(0..person_names.len())].clone();
            let genre = GENRES[rng.gen_range(0..GENRES.len())];
            let rating = (rng.gen_range(10.0f64..100.0) / 10.0 * 10.0).round() / 10.0;
            let country = country_names[rng.gen_range(0..country_names.len())].clone();
            movies.insert(Row::new(vec![
                title.into(),
                Value::Int(year),
                director.into(),
                genre.into(),
                Value::Float(rating),
                country.into(),
            ]))?;
        }

        Ok(World { catalog, spec })
    }

    /// Build the knowledge base mirroring this world (what the simulated
    /// model "knows").
    pub fn knowledge(&self) -> Result<Arc<KnowledgeBase>> {
        Ok(Arc::new(Engine::knowledge_from_catalog(&self.catalog)?))
    }

    /// An oracle engine: traditional execution over the ground truth.
    pub fn oracle_engine(&self) -> Engine {
        Engine::with_catalog(
            self.catalog.clone(),
            EngineConfig::default().with_mode(ExecutionMode::Traditional),
        )
    }

    /// A subject engine with the given configuration and the simulated model
    /// attached. The subject gets its own deep copy of the catalog so that
    /// hybrid experiments can degrade it without touching the oracle.
    pub fn subject_engine(&self, config: EngineConfig) -> Result<Engine> {
        let mut engine = Engine::with_catalog(self.catalog.deep_clone()?, config);
        engine.attach_simulator(self.knowledge()?)?;
        Ok(engine)
    }

    /// A subject engine whose model is served through a mixed-health backend
    /// pool (see [`mixed_backend_config`]): the standard multi-backend
    /// scenario for suite-level experiments. Scores must match the plain
    /// [`World::subject_engine`] exactly — failover changes which endpoint
    /// answers, never what it answers.
    pub fn subject_engine_multi_backend(&self, config: EngineConfig) -> Result<Engine> {
        self.subject_engine(mixed_backend_config(config, true))
    }

    /// A subject engine over an explicitly provided (e.g. degraded) catalog.
    pub fn subject_engine_with_catalog(
        &self,
        catalog: Catalog,
        config: EngineConfig,
    ) -> Result<Engine> {
        let mut engine = Engine::with_catalog(catalog, config);
        engine.attach_simulator(self.knowledge()?)?;
        Ok(engine)
    }

    /// Names of the generated countries (handy for building point queries).
    pub fn country_names(&self) -> Vec<String> {
        self.catalog
            .table("countries")
            .map(|t| {
                t.scan()
                    .iter()
                    .map(|r| r.get(0).to_display_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The median population of the generated countries (used to build
    /// selective range predicates with non-empty answers).
    pub fn median_population(&self) -> i64 {
        let mut pops: Vec<i64> = self
            .catalog
            .table("countries")
            .map(|t| t.scan().iter().filter_map(|r| r.get(3).as_int()).collect())
            .unwrap_or_default();
        pops.sort_unstable();
        pops.get(pops.len() / 2).copied().unwrap_or(0)
    }
}

/// Layer the standard mixed-backend deployment onto a configuration — the
/// canonical scenario shared by the suite tests, the routing bench and the
/// `multi_backend` example: three deterministic remote-like endpoints,
/// `edge-a` (hard down when `one_failing`, exercising failover on every
/// request routed to it), `edge-b` (vanilla) and `edge-c` (premium pricing,
/// so cost-aware routing is observable) — with backoff disabled to keep
/// suites fast.
pub fn mixed_backend_config(base: EngineConfig, one_failing: bool) -> EngineConfig {
    let premium = llmsql_types::LlmCostModel {
        usd_per_1k_prompt_tokens: 0.006,
        usd_per_1k_completion_tokens: 0.012,
        ..llmsql_types::LlmCostModel::default()
    };
    let mut first = llmsql_types::BackendSpec::new("edge-a");
    if one_failing {
        first = first.failing();
    }
    let mut config = base.with_backends(vec![
        first,
        llmsql_types::BackendSpec::new("edge-b"),
        llmsql_types::BackendSpec::new("edge-c").with_cost_model(premium),
    ]);
    config.backend_backoff_ms = 0.0;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let w1 = World::generate(WorldSpec::tiny()).unwrap();
        let w2 = World::generate(WorldSpec::tiny()).unwrap();
        assert_eq!(
            w1.catalog.table("countries").unwrap().scan(),
            w2.catalog.table("countries").unwrap().scan()
        );
        assert_eq!(w1.country_names(), w2.country_names());
    }

    #[test]
    fn sizes_match_spec() {
        let spec = WorldSpec::tiny();
        let w = World::generate(spec).unwrap();
        assert_eq!(
            w.catalog.table("countries").unwrap().row_count(),
            spec.countries
        );
        assert_eq!(
            w.catalog.table("cities").unwrap().row_count(),
            spec.countries * spec.cities_per_country
        );
        assert_eq!(w.catalog.table("people").unwrap().row_count(), spec.people);
        assert_eq!(w.catalog.table("movies").unwrap().row_count(), spec.movies);
    }

    #[test]
    fn referential_integrity() {
        let w = World::generate(WorldSpec::tiny()).unwrap();
        let countries: std::collections::HashSet<String> = w.country_names().into_iter().collect();
        for city in w.catalog.table("cities").unwrap().scan() {
            assert!(countries.contains(&city.get(1).to_display_string()));
        }
        for person in w.catalog.table("people").unwrap().scan() {
            assert!(countries.contains(&person.get(2).to_display_string()));
        }
    }

    #[test]
    fn capitals_are_cities() {
        let w = World::generate(WorldSpec::tiny()).unwrap();
        let capital_cities: Vec<String> = w
            .catalog
            .table("cities")
            .unwrap()
            .scan()
            .iter()
            .filter(|r| r.get(3) == &Value::Bool(true))
            .map(|r| r.get(0).to_display_string())
            .collect();
        assert_eq!(capital_cities.len(), WorldSpec::tiny().countries);
    }

    #[test]
    fn oracle_and_subject_agree_under_perfect_fidelity() {
        let w = World::generate(WorldSpec::tiny()).unwrap();
        let oracle = w.oracle_engine();
        let subject = w
            .subject_engine(
                EngineConfig::default()
                    .with_mode(ExecutionMode::LlmOnly)
                    .with_fidelity(llmsql_types::LlmFidelity::perfect()),
            )
            .unwrap();
        let sql = "SELECT region, COUNT(*) FROM countries GROUP BY region";
        let e = oracle.execute(sql).unwrap();
        let a = subject.execute(sql).unwrap();
        let score = llmsql_core::score_batches(&a.batch, &e.batch, false);
        assert!(score.exact, "{score:?}");
    }

    #[test]
    fn median_population_is_plausible() {
        let w = World::generate(WorldSpec::tiny()).unwrap();
        let m = w.median_population();
        assert!(m > 100_000 && m < 200_000_000);
    }
}
