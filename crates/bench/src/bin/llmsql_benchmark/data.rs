//! The benchmark's own tables, generated from the seed.
//!
//! Four relations in the shape the paper evaluates on (countries, cities,
//! people, movies), with text and integer columns only so the model's
//! textual answers round-trip exactly. The seed decides every name, every
//! number and the row order; what it does **not** decide is how many rows
//! share a category or a foreign key (those are dealt round-robin) or how
//! many rows fall under the k-th smallest value of a numeric column (the
//! numbers are distinct). Query cardinalities — and with them model requests
//! and tokens per query — therefore repeat across seeds, which is what lets
//! those metrics carry a tight bound.

use llmsql_store::Catalog;
use llmsql_types::{Column, DataType, Error, Result, Row, Schema, Value};

use crate::rng::Rng;

pub const REGIONS: [&str; 5] = ["Europe", "Asia", "Africa", "Americas", "Oceania"];
pub const PROFESSIONS: [&str; 6] = [
    "scientist",
    "writer",
    "politician",
    "athlete",
    "musician",
    "engineer",
];
pub const GENRES: [&str; 5] = ["drama", "comedy", "documentary", "thriller", "animation"];

const SYLLABLES: [&str; 16] = [
    "al", "ber", "cor", "dan", "el", "fir", "gor", "han", "is", "jor", "kal", "lun", "mar", "nor",
    "os", "per",
];

/// Row counts of the generated relations (0 leaves the relation out).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub countries: usize,
    pub cities_per_country: usize,
    pub people: usize,
    pub movies: usize,
}

impl Sizes {
    /// The single scanned relation of the dispatch workloads.
    pub fn scan(countries: usize) -> Sizes {
        Sizes {
            countries,
            cities_per_country: 0,
            people: 0,
            movies: 0,
        }
    }
}

/// The generated ground truth: a catalog of materialized tables. The oracle
/// engine reads it directly; the model's knowledge base mirrors it.
pub struct Dataset {
    pub catalog: Catalog,
}

impl Dataset {
    /// All rows of `table`, in stored order.
    pub fn rows(&self, table: &str) -> Result<Vec<Row>> {
        Ok(self.catalog.table(table)?.scan())
    }

    /// Integer values of one column, ascending: `sorted[k]` is the constant
    /// for which `column >= constant` drops exactly `k` rows.
    pub fn sorted_ints(&self, table: &str, column: &str) -> Result<Vec<i64>> {
        let handle = self.catalog.table(table)?;
        let index = handle
            .schema()
            .index_of(column)
            .ok_or_else(|| Error::schema(format!("table {table} has no column {column}")))?;
        let mut values: Vec<i64> = handle
            .scan()
            .iter()
            .filter_map(|row| row.get(index).as_int())
            .collect();
        values.sort_unstable();
        Ok(values)
    }

    /// Text values of one column, in stored order.
    pub fn texts(&self, table: &str, column: usize) -> Result<Vec<String>> {
        Ok(self
            .rows(table)?
            .iter()
            .filter_map(|row| row.get(column).as_str().map(str::to_string))
            .collect())
    }
}

struct NameMaker {
    rng: Rng,
    used: std::collections::HashSet<String>,
}

impl NameMaker {
    fn word(&mut self, syllables: usize) -> String {
        let mut word = String::new();
        for _ in 0..syllables {
            word.push_str(SYLLABLES[self.rng.below(SYLLABLES.len())]);
        }
        let mut chars = word.chars();
        let first = chars.next().unwrap_or('x').to_ascii_uppercase();
        format!("{first}{}", chars.as_str())
    }

    /// A name no other entity of the dataset carries.
    fn unique(&mut self, make: impl Fn(&mut NameMaker) -> String) -> String {
        loop {
            let name = make(self);
            if self.used.insert(name.clone()) {
                return name;
            }
        }
    }
}

/// `n` distinct integers `base + rank * step + jitter` in seeded order.
fn distinct_ints(rng: &mut Rng, n: usize, base: i64, step: i64) -> Vec<i64> {
    let mut ranks: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut ranks);
    ranks
        .into_iter()
        .map(|rank| base + rank * step + rng.below(step.max(1) as usize) as i64)
        .collect()
}

fn text(value: &str) -> Value {
    Value::Text(value.to_string())
}

/// Generate the dataset for `sizes` from `rng`'s data stream.
pub fn generate(rng: &Rng, sizes: Sizes) -> Result<Dataset> {
    let mut rng = rng.fork(1);
    let mut names = NameMaker {
        rng: rng.fork(2),
        used: std::collections::HashSet::new(),
    };
    let catalog = Catalog::new();

    let country_names: Vec<String> = (0..sizes.countries)
        .map(|_| names.unique(|n| format!("{}ia", n.word(3))))
        .collect();
    let populations = distinct_ints(&mut rng, sizes.countries, 100_000, 37_219);
    let mut rows: Vec<Row> = country_names
        .iter()
        .zip(&populations)
        .enumerate()
        .map(|(i, (name, &population))| {
            Row::new(vec![
                text(name),
                text(REGIONS[i % REGIONS.len()]),
                Value::Int(population),
            ])
        })
        .collect();
    rng.shuffle(&mut rows);
    let countries = catalog.create_table(
        Schema::new(
            "countries",
            vec![
                Column::new("name", DataType::Text)
                    .primary_key()
                    .with_description("the short English name of the country"),
                Column::new("region", DataType::Text)
                    .with_description("the continent or world region"),
                Column::new("population", DataType::Int).with_description("the total population"),
            ],
        )
        .with_description("countries of the synthetic world atlas"),
    )?;
    countries.insert_many(rows)?;

    if sizes.cities_per_country > 0 {
        let n = sizes.countries * sizes.cities_per_country;
        let populations = distinct_ints(&mut rng, n, 20_000, 9_973);
        let mut rows: Vec<Row> = populations
            .iter()
            .enumerate()
            .map(|(i, &population)| {
                Row::new(vec![
                    text(&names.unique(|n| format!("{}ville", n.word(3)))),
                    text(&country_names[i % country_names.len()]),
                    Value::Int(population),
                ])
            })
            .collect();
        rng.shuffle(&mut rows);
        let cities = catalog.create_table(
            Schema::new(
                "cities",
                vec![
                    Column::new("name", DataType::Text)
                        .primary_key()
                        .with_description("the city name"),
                    Column::new("country", DataType::Text)
                        .with_description("the country the city belongs to"),
                    Column::new("population", DataType::Int)
                        .with_description("the city population"),
                ],
            )
            .with_description("major cities of the synthetic world atlas"),
        )?;
        cities.insert_many(rows)?;
    }

    let person_names: Vec<String> = (0..sizes.people)
        .map(|_| names.unique(|n| format!("{} {}son", n.word(2), n.word(2))))
        .collect();
    if sizes.people > 0 {
        let birth_years = distinct_ints(&mut rng, sizes.people, 1850, 1);
        let mut rows: Vec<Row> = person_names
            .iter()
            .zip(&birth_years)
            .enumerate()
            .map(|(i, (name, &year))| {
                Row::new(vec![
                    text(name),
                    Value::Int(year),
                    text(&country_names[i % country_names.len()]),
                    text(PROFESSIONS[i % PROFESSIONS.len()]),
                ])
            })
            .collect();
        rng.shuffle(&mut rows);
        let people = catalog.create_table(
            Schema::new(
                "people",
                vec![
                    Column::new("name", DataType::Text)
                        .primary_key()
                        .with_description("the person's full name"),
                    Column::new("birth_year", DataType::Int).with_description("the year of birth"),
                    Column::new("nationality", DataType::Text)
                        .with_description("the country of citizenship"),
                    Column::new("profession", DataType::Text)
                        .with_description("the main profession"),
                ],
            )
            .with_description("notable people of the synthetic world"),
        )?;
        people.insert_many(rows)?;
    }

    if sizes.movies > 0 {
        let years = distinct_ints(&mut rng, sizes.movies, 1920, 1);
        let mut rows: Vec<Row> = years
            .iter()
            .enumerate()
            .map(|(i, &year)| {
                Row::new(vec![
                    text(&names.unique(|n| format!("The {} of {}a", n.word(2), n.word(2)))),
                    Value::Int(year),
                    text(&person_names[i % person_names.len()]),
                    text(GENRES[i % GENRES.len()]),
                    text(&country_names[(i * 7) % country_names.len()]),
                ])
            })
            .collect();
        rng.shuffle(&mut rows);
        let movies = catalog.create_table(
            Schema::new(
                "movies",
                vec![
                    Column::new("title", DataType::Text)
                        .primary_key()
                        .with_description("the movie title"),
                    Column::new("year", DataType::Int).with_description("the release year"),
                    Column::new("director", DataType::Text)
                        .with_description("the director's full name"),
                    Column::new("genre", DataType::Text).with_description("the primary genre"),
                    Column::new("country", DataType::Text)
                        .with_description("the country of production"),
                ],
            )
            .with_description("feature films of the synthetic world"),
        )?;
        movies.insert_many(rows)?;
    }

    Ok(Dataset { catalog })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANALYTICS: Sizes = Sizes {
        countries: 80,
        cities_per_country: 4,
        people: 150,
        movies: 100,
    };

    #[test]
    fn same_seed_same_tables_and_category_sizes_repeat_across_seeds() {
        let a = generate(&Rng::new(1), ANALYTICS).unwrap();
        let b = generate(&Rng::new(1), ANALYTICS).unwrap();
        let c = generate(&Rng::new(2), ANALYTICS).unwrap();
        for table in ["countries", "cities", "people", "movies"] {
            assert_eq!(a.rows(table).unwrap(), b.rows(table).unwrap());
            assert_ne!(a.rows(table).unwrap(), c.rows(table).unwrap());
            assert_eq!(a.rows(table).unwrap().len(), c.rows(table).unwrap().len());
        }
        assert_eq!(a.rows("cities").unwrap().len(), 320);
        let europeans = |d: &Dataset| {
            d.texts("countries", 1)
                .unwrap()
                .iter()
                .filter(|r| *r == "Europe")
                .count()
        };
        assert_eq!(europeans(&a), 16);
        assert_eq!(europeans(&c), 16);
        // Distinct numbers: the k-th smallest drops exactly k rows.
        let pops = a.sorted_ints("countries", "population").unwrap();
        assert!(pops.windows(2).all(|w| w[0] < w[1]));
    }
}
