//! The benchmark's own query and arrival generators.
//!
//! Query *shapes* (projection lists, predicate kinds, how many rows a
//! predicate drops, join pairs, group keys, `LIMIT`s) are fixed lists, so the
//! work a workload asks for is the same under every seed. The seed supplies
//! the constants — read off the generated data by rank or by drawing a
//! category — and the order in which the queries run.

use llmsql_types::Result;

use crate::data::{Dataset, GENRES, PROFESSIONS, REGIONS};
use crate::rng::Rng;

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub sql: String,
    /// Row order is part of the answer (`ORDER BY`); otherwise results are
    /// compared with the oracle as multisets.
    pub ordered: bool,
}

impl Query {
    fn new(sql: String) -> Query {
        let ordered = sql.contains("ORDER BY");
        Query { sql, ordered }
    }
}

/// Projections of 1–3 columns of `countries`.
const PROJECTIONS: [&str; 8] = [
    "name",
    "region",
    "population",
    "name, region",
    "name, population",
    "region, population",
    "name, region, population",
    "population, name",
];

/// Projections that fetch at least one non-key column, so a tuple-at-a-time
/// scan issues one lookup per row.
const LOOKUP_PROJECTIONS: [&str; 8] = [
    "region",
    "population",
    "name, region",
    "name, population",
    "region, population",
    "name, region, population",
    "population, name",
    "population, region",
];

/// Distinct predicate templates [`range_predicate`] can render.
const RANGE_TEMPLATES: usize = 29;

/// The `i`-th range predicate on `population`, with constants read off the
/// data by rank (`sorted` ascending, all distinct). Templates 0 and 1 keep
/// every row; the rest drop `k` = 1..=9 rows from the bottom, the top, or
/// split over both ends — so a 200-row relation keeps over 95 % of its rows
/// and a paged scan still needs every page.
fn range_predicate(sorted: &[i64], i: usize) -> String {
    let last = sorted.len() - 1;
    match i {
        0 => format!("population >= {}", sorted[0]),
        1 => format!("population <= {}", sorted[last]),
        _ => {
            let k = (i - 2) / 3 % 9 + 1;
            match (i - 2) % 3 {
                0 => format!("population >= {}", sorted[k]),
                1 => format!("population <= {}", sorted[last - k]),
                _ => format!(
                    "population BETWEEN {} AND {}",
                    sorted[k.div_ceil(2)],
                    sorted[last - k / 2]
                ),
            }
        }
    }
}

/// Every aligned run of this many scan queries holds each projection shape
/// once, so blocks that are a multiple of it ask for the same work mix.
pub const SCAN_MIX_PERIOD: usize = PROJECTIONS.len();

/// Which scans a workload asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanShape {
    /// Any projection; range constants read off the data by rank.
    Paged,
    /// Projections a tuple-at-a-time scan must look up; constants by rank.
    Lookups,
    /// Any projection; range constants that are fixed numbers below every
    /// generated population, so each predicate keeps every row and the
    /// *prompt texts* are the same under every seed. The chaos plan deals
    /// faults by prompt text: with seeded constants every seed would meet a
    /// different bad day. The seed still decides the data and the order.
    FixedText,
}

/// `n` distinct full-relation scans of `countries`: every projection shape
/// crossed with as many predicate templates as `n` needs. The seed orders
/// the templates and the shapes within each template.
pub fn scan_queries(data: &Dataset, rng: &Rng, n: usize, shape: ScanShape) -> Result<Vec<Query>> {
    let sorted = data.sorted_ints("countries", "population")?;
    let projections = match shape {
        ScanShape::Lookups => LOOKUP_PROJECTIONS,
        ScanShape::Paged | ScanShape::FixedText => PROJECTIONS,
    };
    assert!(
        n <= projections.len() * RANGE_TEMPLATES && sorted.len() >= 20,
        "scan_queries: {n} queries over {} rows",
        sorted.len()
    );
    let mut rng = rng.fork(3);
    let mut groups: Vec<Vec<Query>> = (0..n.div_ceil(projections.len()))
        .map(|template| {
            let predicate = match shape {
                ScanShape::FixedText => format!("population >= {}", 50_000 + 1_000 * template),
                ScanShape::Paged | ScanShape::Lookups => range_predicate(&sorted, template),
            };
            let mut group: Vec<Query> = projections
                .iter()
                .take(n - template * projections.len())
                .map(|columns| {
                    Query::new(format!("SELECT {columns} FROM countries WHERE {predicate}"))
                })
                .collect();
            rng.shuffle(&mut group);
            group
        })
        .collect();
    rng.shuffle(&mut groups);
    Ok(groups.into_iter().flatten().collect())
}

/// The analytics mix: 12 each of projection, equality selection, range,
/// two-table equi-join, grouped aggregate and `ORDER BY … LIMIT k` over the
/// four relations, in seeded order.
pub fn analytics_queries(data: &Dataset, rng: &Rng) -> Result<Vec<Query>> {
    let mut rng = rng.fork(4);
    let country_pop = data.sorted_ints("countries", "population")?;
    let city_pop = data.sorted_ints("cities", "population")?;
    let birth = data.sorted_ints("people", "birth_year")?;
    let year = data.sorted_ints("movies", "year")?;
    let countries = data.texts("countries", 0)?;
    // Seeded draws of the constants; the shapes below never change.
    let mut pick = |items: &[&str]| items[rng.below(items.len())].to_string();
    let regions: Vec<String> = (0..6).map(|_| pick(&REGIONS)).collect();
    let professions: Vec<String> = (0..6).map(|_| pick(&PROFESSIONS)).collect();
    let genres: Vec<String> = (0..6).map(|_| pick(&GENRES)).collect();
    let country_refs: Vec<&str> = countries.iter().map(String::as_str).collect();
    let named: Vec<String> = (0..3).map(|_| pick(&country_refs)).collect();

    let mut sql: Vec<String> = [
        "SELECT name, region FROM countries",
        "SELECT name, population FROM countries",
        "SELECT name, region, population FROM countries",
        "SELECT name, country FROM cities",
        "SELECT name, population FROM cities",
        "SELECT country, population FROM cities",
        "SELECT name, profession FROM people",
        "SELECT name, birth_year, nationality FROM people",
        "SELECT nationality, profession FROM people",
        "SELECT title, year FROM movies",
        "SELECT title, director, genre FROM movies",
        "SELECT title, country FROM movies",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();

    // Equality selections.
    sql.extend([
        format!(
            "SELECT name, population FROM countries WHERE region = '{}'",
            regions[0]
        ),
        format!("SELECT name FROM countries WHERE region = '{}'", regions[1]),
        format!(
            "SELECT name, region, population FROM countries WHERE region = '{}'",
            regions[2]
        ),
        format!(
            "SELECT name, nationality FROM people WHERE profession = '{}'",
            professions[0]
        ),
        format!(
            "SELECT name, birth_year FROM people WHERE profession = '{}'",
            professions[1]
        ),
        format!(
            "SELECT name FROM people WHERE profession = '{}'",
            professions[2]
        ),
        format!(
            "SELECT title, year FROM movies WHERE genre = '{}'",
            genres[0]
        ),
        format!(
            "SELECT title, director FROM movies WHERE genre = '{}'",
            genres[1]
        ),
        format!("SELECT title FROM movies WHERE genre = '{}'", genres[2]),
        format!(
            "SELECT region, population FROM countries WHERE name = '{}'",
            named[0]
        ),
        format!(
            "SELECT name, population FROM cities WHERE country = '{}'",
            named[1]
        ),
        format!(
            "SELECT name, profession FROM people WHERE nationality = '{}'",
            named[2]
        ),
    ]);

    // Ranges, by rank: `col >= sorted[k]` drops exactly k rows.
    sql.extend([
        format!(
            "SELECT name, population FROM countries WHERE population >= {}",
            country_pop[8]
        ),
        format!(
            "SELECT name, region FROM countries WHERE population >= {}",
            country_pop[40]
        ),
        format!(
            "SELECT name FROM countries WHERE population <= {}",
            country_pop[23]
        ),
        format!(
            "SELECT name, population FROM cities WHERE population >= {}",
            city_pop[160]
        ),
        format!(
            "SELECT name, country FROM cities WHERE population BETWEEN {} AND {}",
            city_pop[80], city_pop[239]
        ),
        format!(
            "SELECT name FROM cities WHERE population <= {}",
            city_pop[63]
        ),
        format!(
            "SELECT name, birth_year FROM people WHERE birth_year >= {}",
            birth[75]
        ),
        format!(
            "SELECT name, profession FROM people WHERE birth_year BETWEEN {} AND {}",
            birth[30], birth[119]
        ),
        format!("SELECT name FROM people WHERE birth_year <= {}", birth[29]),
        format!("SELECT title, year FROM movies WHERE year >= {}", year[50]),
        format!(
            "SELECT title, genre FROM movies WHERE year BETWEEN {} AND {}",
            year[20], year[79]
        ),
        format!("SELECT title FROM movies WHERE year <= {}", year[19]),
    ]);

    // Two-table equi-joins with a selection on one side.
    sql.extend([
        format!(
            "SELECT ci.name, c.name FROM cities ci JOIN countries c ON ci.country = c.name \
             WHERE c.region = '{}'",
            regions[3]
        ),
        format!(
            "SELECT ci.name, c.region FROM cities ci JOIN countries c ON ci.country = c.name \
             WHERE ci.population >= {}",
            city_pop[240]
        ),
        format!(
            "SELECT ci.name, ci.population, c.population FROM cities ci \
             JOIN countries c ON ci.country = c.name WHERE c.region = '{}'",
            regions[4]
        ),
        format!(
            "SELECT p.name, c.region FROM people p JOIN countries c ON p.nationality = c.name \
             WHERE p.profession = '{}'",
            professions[3]
        ),
        format!(
            "SELECT p.name, c.population FROM people p JOIN countries c ON p.nationality = c.name \
             WHERE c.region = '{}'",
            regions[5]
        ),
        format!(
            "SELECT p.name, p.profession, c.name FROM people p \
             JOIN countries c ON p.nationality = c.name WHERE p.birth_year >= {}",
            birth[100]
        ),
        format!(
            "SELECT m.title, c.region FROM movies m JOIN countries c ON m.country = c.name \
             WHERE m.genre = '{}'",
            genres[3]
        ),
        format!(
            "SELECT m.title, c.population FROM movies m JOIN countries c ON m.country = c.name \
             WHERE m.year >= {}",
            year[60]
        ),
        format!(
            "SELECT m.title, m.year, c.name FROM movies m JOIN countries c ON m.country = c.name \
             WHERE m.genre = '{}'",
            genres[4]
        ),
        format!(
            "SELECT m.title, p.nationality FROM movies m JOIN people p ON m.director = p.name \
             WHERE m.year >= {}",
            year[40]
        ),
        format!(
            "SELECT m.title, p.birth_year FROM movies m JOIN people p ON m.director = p.name \
             WHERE m.genre = '{}'",
            genres[5]
        ),
        format!(
            "SELECT m.title, p.name FROM movies m JOIN people p ON m.director = p.name \
             WHERE p.profession = '{}'",
            professions[4]
        ),
    ]);

    // Grouped aggregates.
    sql.extend([
        "SELECT region, COUNT(*) FROM countries GROUP BY region".to_string(),
        "SELECT region, SUM(population) FROM countries GROUP BY region".to_string(),
        "SELECT region, MAX(population) FROM countries GROUP BY region".to_string(),
        "SELECT country, COUNT(*) FROM cities GROUP BY country".to_string(),
        "SELECT country, SUM(population) FROM cities GROUP BY country".to_string(),
        "SELECT profession, COUNT(*) FROM people GROUP BY profession".to_string(),
        "SELECT profession, MIN(birth_year) FROM people GROUP BY profession".to_string(),
        "SELECT nationality, COUNT(*) FROM people GROUP BY nationality".to_string(),
        "SELECT genre, COUNT(*) FROM movies GROUP BY genre".to_string(),
        format!(
            "SELECT genre, MAX(year) FROM movies WHERE year >= {} GROUP BY genre",
            year[30]
        ),
        "SELECT country, COUNT(*) FROM movies GROUP BY country".to_string(),
        format!(
            "SELECT region, MIN(population) FROM countries WHERE population >= {} GROUP BY region",
            country_pop[16]
        ),
    ]);

    // ORDER BY … LIMIT k over distinct sort keys, so the order has no ties.
    sql.extend(
        [
            ("name, population", "countries", "population DESC", 3),
            ("name, population", "countries", "population", 5),
            ("name, region", "countries", "population DESC", 10),
            ("name, population", "cities", "population DESC", 7),
            ("name, country", "cities", "population", 4),
            ("name, population", "cities", "population DESC", 10),
            ("name, birth_year", "people", "birth_year", 6),
            ("name, profession", "people", "birth_year DESC", 8),
            ("name, birth_year", "people", "birth_year DESC", 3),
            ("title, year", "movies", "year DESC", 9),
            ("title, genre", "movies", "year", 5),
            ("title, year", "movies", "year DESC", 7),
        ]
        .iter()
        .map(|(columns, table, order, k)| {
            format!("SELECT {columns} FROM {table} ORDER BY {order} LIMIT {k}")
        }),
    );

    let mut queries: Vec<Query> = sql.into_iter().map(Query::new).collect();
    rng.shuffle(&mut queries);
    Ok(queries)
}

/// One arrival event of the open-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the event is due, microseconds after the phase starts.
    pub due_us: u64,
    /// Index of the query submitted.
    pub query: usize,
    /// First tenant of the event; a burst submits the same query from
    /// `copies` consecutive tenants (mod the tenant count).
    pub tenant: usize,
    /// 1, or the burst size.
    pub copies: usize,
}

/// Tenants of the open-loop workload.
pub const TENANTS: usize = 4;

/// Queries that take half the traffic of the open-loop workload.
pub const HOT_QUERIES: usize = 8;

/// A Poisson arrival schedule of exactly `events_per_s × duration_s` events:
/// exponential gaps, rescaled so the last gap ends at `duration_s` (a Poisson
/// process given its count — the offered rate is then the same under every
/// seed). Every fourth event is a burst of one query from all tenants at
/// once; half the traffic goes to the first [`HOT_QUERIES`] of `distinct`
/// queries.
pub fn arrival_schedule(
    rng: &Rng,
    events_per_s: f64,
    duration_s: f64,
    distinct: usize,
) -> Vec<Arrival> {
    let mut rng = rng.fork(5);
    let hot = HOT_QUERIES.min(distinct);
    let events = (events_per_s * duration_s).round().max(1.0) as usize;
    let mut elapsed = 0.0;
    let arrivals: Vec<f64> = (0..events)
        .map(|_| {
            elapsed += rng.exp_gap(1.0);
            elapsed
        })
        .collect();
    let scale = duration_s / (elapsed + rng.exp_gap(1.0));
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| Arrival {
            due_us: (at * scale * 1e6) as u64,
            query: if distinct == hot || rng.below(2) == 0 {
                rng.below(hot)
            } else {
                hot + rng.below(distinct - hot)
            },
            tenant: i % TENANTS,
            copies: if i % 4 == 3 { TENANTS } else { 1 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate, Sizes};

    #[test]
    fn scan_queries_repeat_per_seed_are_distinct_and_keep_most_rows() {
        let data = generate(&Rng::new(1), Sizes::scan(200)).unwrap();
        let a = scan_queries(&data, &Rng::new(1), 200, ScanShape::Paged).unwrap();
        assert_eq!(
            a,
            scan_queries(&data, &Rng::new(1), 200, ScanShape::Paged).unwrap()
        );
        let other = generate(&Rng::new(2), Sizes::scan(200)).unwrap();
        assert_ne!(
            a,
            scan_queries(&other, &Rng::new(2), 200, ScanShape::Paged).unwrap()
        );
        let mut texts: Vec<&str> = a.iter().map(|q| q.sql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 200, "queries must be distinct");
        // The 16 lookup scans keep every row: 1 enumerate + 200 lookups each.
        for q in scan_queries(&data, &Rng::new(1), 16, ScanShape::Lookups).unwrap() {
            assert!(!q.sql.starts_with("SELECT name FROM"), "{}", q.sql);
        }
        // Fixed-text scans: the same texts under every seed, in another order.
        let texts = |data: &Dataset, seed| {
            let queries = scan_queries(data, &Rng::new(seed), 64, ScanShape::FixedText).unwrap();
            let mut sorted: Vec<String> = queries.iter().map(|q| q.sql.clone()).collect();
            sorted.sort_unstable();
            (queries, sorted)
        };
        let (order_1, texts_1) = texts(&data, 1);
        let (order_2, texts_2) = texts(&other, 2);
        assert_eq!(texts_1, texts_2);
        assert_ne!(order_1, order_2);
    }

    #[test]
    fn analytics_mix_has_72_distinct_queries_in_seeded_order() {
        let sizes = Sizes {
            countries: 80,
            cities_per_country: 4,
            people: 150,
            movies: 100,
        };
        let data = generate(&Rng::new(1), sizes).unwrap();
        let a = analytics_queries(&data, &Rng::new(1)).unwrap();
        assert_eq!(a.len(), 72);
        assert_eq!(a, analytics_queries(&data, &Rng::new(1)).unwrap());
        let other = generate(&Rng::new(2), sizes).unwrap();
        assert_ne!(a, analytics_queries(&other, &Rng::new(2)).unwrap());
        let mut texts: Vec<&str> = a.iter().map(|q| q.sql.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 72);
        assert_eq!(a.iter().filter(|q| q.ordered).count(), 12);
    }

    #[test]
    fn arrival_schedule_repeats_per_seed_and_has_the_stated_shape() {
        let a = arrival_schedule(&Rng::new(1), 110.0, 20.0, 200);
        assert_eq!(a, arrival_schedule(&Rng::new(1), 110.0, 20.0, 200));
        assert_ne!(a, arrival_schedule(&Rng::new(2), 110.0, 20.0, 200));
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert_eq!(a.len(), 2200);
        assert!(a.last().unwrap().due_us < 20_000_000);
        let events = a.len() as f64;
        let queries: usize = a.iter().map(|e| e.copies).sum();
        assert!((queries as f64 / events - 1.75).abs() < 0.01);
        let hot = a
            .iter()
            .filter(|e| e.query < HOT_QUERIES)
            .map(|e| e.copies)
            .sum::<usize>() as f64;
        assert!((hot / queries as f64 - 0.5).abs() < 0.05, "hot share");
        assert!(a.iter().all(|e| e.query < 200 && e.tenant < TENANTS));
    }
}
