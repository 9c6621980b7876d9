//! The bytes of every prompt are pinned.
//!
//! The model is addressed by prompt text — the prompt cache, the
//! single-flight table and a replayed recording all key on it — so one
//! changed byte is a different request. These snapshots are the full
//! literal text of every task kind as the engine has always rendered it,
//! and of the packed requests that carry several per-tuple prompts;
//! whatever renders prompts must reproduce them exactly.

use llmsql_llm::batch::split_prompt;
use llmsql_llm::prompt::{PromptTemplate, TaskSpec};
use llmsql_llm::{is_packed, pack_keys};
use llmsql_types::{Column, DataType, Schema};

fn schema() -> Schema {
    Schema::virtual_table(
        "countries",
        vec![
            Column::new("name", DataType::Text)
                .primary_key()
                .with_description("the common English name"),
            Column::new("capital", DataType::Text),
            Column::new("population", DataType::Int).with_description("population in 2023"),
        ],
    )
    .with_description("sovereign countries of the world")
}

/// (task, render against the schema?, the prompt)
fn golden() -> Vec<(TaskSpec, bool, &'static str)> {
    vec![
        // enumerate filter=false offset=0
        (
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: None,
                limit: 50,
                offset: 0,
            },
            true,
            r#"### TASK
kind: enumerate
table: countries
limit: 50
offset: 0
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Using only your internal knowledge, list up to 50 distinct entities of the relation described above. Respond with exactly one entity identifier per line, no numbering, no commentary. If you know fewer entities, list only those you know."#,
        ),
        // enumerate filter=true offset=0
        (
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: Some("population > 1000".into()),
                limit: 50,
                offset: 0,
            },
            true,
            r#"### TASK
kind: enumerate
table: countries
filter: population > 1000
limit: 50
offset: 0
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Using only your internal knowledge, list up to 50 distinct entities of the relation described above that satisfy the filter condition. Respond with exactly one entity identifier per line, no numbering, no commentary. If you know fewer entities, list only those you know."#,
        ),
        // enumerate filter=false offset=30
        (
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: None,
                limit: 50,
                offset: 30,
            },
            true,
            r#"### TASK
kind: enumerate
table: countries
limit: 50
offset: 30
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Using only your internal knowledge, list up to 50 distinct entities of the relation described above, skipping the first 30 entities you would otherwise list. Respond with exactly one entity identifier per line, no numbering, no commentary. If you know fewer entities, list only those you know."#,
        ),
        // enumerate filter=true offset=30
        (
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: Some("population > 1000".into()),
                limit: 50,
                offset: 30,
            },
            true,
            r#"### TASK
kind: enumerate
table: countries
filter: population > 1000
limit: 50
offset: 30
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Using only your internal knowledge, list up to 50 distinct entities of the relation described above that satisfy the filter condition, skipping the first 30 entities you would otherwise list. Respond with exactly one entity identifier per line, no numbering, no commentary. If you know fewer entities, list only those you know."#,
        ),
        // row_batch filter=false offset=0
        (
            TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into()],
                filter: None,
                limit: 20,
                offset: 0,
            },
            true,
            r#"### TASK
kind: row_batch
table: countries
columns: name | capital
limit: 20
offset: 0
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Produce up to 20 rows of the relation described above, returning the columns [name, capital] in that exact order. Respond with one row per line, column values separated by " | ". Write NULL for values you do not know. No header, no commentary."#,
        ),
        // row_batch filter=true offset=0
        (
            TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into()],
                filter: Some("region = 'Europe'".into()),
                limit: 20,
                offset: 0,
            },
            true,
            r#"### TASK
kind: row_batch
table: countries
columns: name | capital
filter: region = 'Europe'
limit: 20
offset: 0
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Produce up to 20 rows of the relation described above, returning the columns [name, capital] in that exact order, including only rows that satisfy the filter condition. Respond with one row per line, column values separated by " | ". Write NULL for values you do not know. No header, no commentary."#,
        ),
        // row_batch filter=false offset=40
        (
            TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into()],
                filter: None,
                limit: 20,
                offset: 40,
            },
            true,
            r#"### TASK
kind: row_batch
table: countries
columns: name | capital
limit: 20
offset: 40
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Produce up to 20 rows of the relation described above, returning the columns [name, capital] in that exact order, skipping the first 40 rows you would otherwise return. Respond with one row per line, column values separated by " | ". Write NULL for values you do not know. No header, no commentary."#,
        ),
        // row_batch filter=true offset=40
        (
            TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into()],
                filter: Some("region = 'Europe'".into()),
                limit: 20,
                offset: 40,
            },
            true,
            r#"### TASK
kind: row_batch
table: countries
columns: name | capital
filter: region = 'Europe'
limit: 20
offset: 40
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. Produce up to 20 rows of the relation described above, returning the columns [name, capital] in that exact order, including only rows that satisfy the filter condition, skipping the first 40 rows you would otherwise return. Respond with one row per line, column values separated by " | ". Write NULL for values you do not know. No header, no commentary."#,
        ),
        // lookup
        (
            TaskSpec::Lookup {
                table: "countries".into(),
                key: "France".into(),
                columns: vec!["capital".into(), "population".into()],
            },
            true,
            r#"### TASK
kind: lookup
table: countries
key: France
columns: capital | population
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. For the single entity identified by "France", return the values of the columns [capital, population] in that exact order on one line, separated by " | ". Write NULL for values you do not know. No commentary."#,
        ),
        // filter_check
        (
            TaskSpec::FilterCheck {
                table: "countries".into(),
                key: "Japan".into(),
                condition: "population > 100000000".into(),
            },
            true,
            r#"### TASK
kind: filter_check
table: countries
key: Japan
condition: population > 100000000
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
Consider the entity identified by "Japan" in the relation described above. Does it satisfy the condition `population > 100000000`? Answer with exactly one word: "yes" or "no". If you are unsure, answer "unknown"."#,
        ),
        // full_query
        (
            TaskSpec::FullQuery {
                sql: "SELECT name FROM countries WHERE population > 5".into(),
                columns: vec!["name".into()],
            },
            true,
            r#"### TASK
kind: full_query
sql: SELECT name FROM countries WHERE population > 5
columns: name
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as a complete SQL database engine whose data is your internal world knowledge. Execute the following SQL query and return the result table:
SELECT name FROM countries WHERE population > 5
Respond with one result row per line, column values separated by " | ", in the column order of the SELECT list. Write NULL for unknown values. No header, no commentary."#,
        ),
        // lookup no schema
        (
            TaskSpec::Lookup {
                table: "countries".into(),
                key: "France".into(),
                columns: vec!["capital".into()],
            },
            false,
            r#"### TASK
kind: lookup
table: countries
key: France
columns: capital
### CONTEXT
(no additional context)
### INSTRUCTIONS
You are acting as the storage layer of a relational database. For the single entity identified by "France", return the values of the columns [capital] in that exact order on one line, separated by " | ". Write NULL for values you do not know. No commentary."#,
        ),
    ]
}

#[test]
fn every_task_kind_renders_its_pinned_bytes() {
    let schema = schema();
    for (spec, with_schema, expected) in golden() {
        let prompt = spec.to_prompt(with_schema.then_some(&schema));
        assert_eq!(prompt, expected, "prompt bytes moved for {spec:?}");
    }
}

/// The one escaping rule, pinned: an untrusted string is always one line
/// (`\` → `\\`, line feed → `\n`, carriage return → `\r`), in the header and
/// in the instructions alike, and `parse_task` reads back what was rendered.
#[test]
fn a_value_that_holds_a_line_break_is_one_escaped_header_line() {
    let page = TaskSpec::RowBatch {
        table: "countries".into(),
        columns: vec!["name".into()],
        filter: Some("(name = 'a\nlimit: 1\noffset: 7')".into()),
        limit: 20,
        offset: 0,
    };
    let prompt = page.to_prompt(None);
    assert!(
        prompt.starts_with(
            "### TASK\nkind: row_batch\ntable: countries\ncolumns: name\n\
             filter: (name = 'a\\nlimit: 1\\noffset: 7')\nlimit: 20\noffset: 0\n### CONTEXT\n"
        ),
        "{prompt}"
    );
    assert_eq!(llmsql_llm::parse_task(&prompt).unwrap(), page);

    let lookup = TaskSpec::Lookup {
        table: "countries".into(),
        key: "two\r\nlines \\n ### TASK".into(),
        columns: vec!["capital".into()],
    };
    let prompt = lookup.to_prompt(None);
    assert!(
        prompt.starts_with(
            "### TASK\nkind: lookup\ntable: countries\n\
             key: two\\r\\nlines \\\\n ### TASK\ncolumns: capital\n### CONTEXT\n"
        ),
        "{prompt}"
    );
    assert!(
        prompt.contains("identified by \"two\\r\\nlines \\\\n ### TASK\", return"),
        "{prompt}"
    );
    assert_eq!(llmsql_llm::parse_task(&prompt).unwrap(), lookup);
}

/// (the templates, the members as (template, key), the packed request)
type PackedCase = (
    Vec<PromptTemplate>,
    Vec<(usize, &'static str)>,
    &'static str,
);

fn packed_golden(schema: &Schema) -> Vec<PackedCase> {
    let lookup = |columns: &[&str]| PromptTemplate::lookup("countries", columns, Some(schema));
    let check = PromptTemplate::filter_check("countries", "population > 100000000", Some(schema));
    vec![
        // four lookups of one template: the template once, four key lines
        (
            vec![lookup(&["capital", "population"])],
            vec![(0, "France"), (0, "Japan"), (0, "Iceland"), (0, "São Tomé")],
            r#"### TASK
kind: lookup
table: countries
key: France
key: Japan
key: Iceland
key: São Tomé
columns: capital | population
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. For each entity named on a `key:` line, return the values of the columns [capital, population] in that exact order on one line, separated by " | ". Write NULL for values you do not know. No commentary. Answer the entities in the order of their `key:` lines, one section each, with a line reading exactly "=====LLMSQL-BATCH-MEMBER=====" between two sections."#,
        ),
        // two filter checks
        (
            vec![check],
            vec![(0, "Japan"), (0, "Peru")],
            r#"### TASK
kind: filter_check
table: countries
key: Japan
key: Peru
condition: population > 100000000
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
Consider each entity named on a `key:` line in the relation described above. Does it satisfy the condition `population > 100000000`? Answer with exactly one word: "yes" or "no". If you are unsure, answer "unknown". Answer the entities in the order of their `key:` lines, one section each, with a line reading exactly "=====LLMSQL-BATCH-MEMBER=====" between two sections."#,
        ),
        // a hybrid fill over two NULL patterns: a section per template
        (
            vec![lookup(&["capital"]), lookup(&["population"])],
            vec![(0, "France"), (0, "Japan"), (1, "Peru")],
            r#"### TASK
kind: lookup
table: countries
key: France
key: Japan
columns: capital
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. For each entity named on a `key:` line, return the values of the columns [capital] in that exact order on one line, separated by " | ". Write NULL for values you do not know. No commentary. Answer the entities in the order of their `key:` lines, one section each, with a line reading exactly "=====LLMSQL-BATCH-MEMBER=====" between two sections.
=====LLMSQL-BATCH-MEMBER=====
### TASK
kind: lookup
table: countries
key: Peru
columns: population
### CONTEXT
The relation 'countries' describes sovereign countries of the world. Its columns are: name (text, the common English name, identifies the entity); capital (text); population (integer, population in 2023).
### INSTRUCTIONS
You are acting as the storage layer of a relational database. For the single entity identified by "Peru", return the values of the columns [population] in that exact order on one line, separated by " | ". Write NULL for values you do not know. No commentary."#,
        ),
    ]
}

/// A packed request states each run's template once, and splits back into
/// exactly the one-key prompts its members are.
#[test]
fn every_packed_request_renders_its_pinned_bytes() {
    let schema = schema();
    for (templates, members, expected) in packed_golden(&schema) {
        let packed = pack_keys(members.iter().map(|&(t, key)| (&templates[t], key)));
        assert_eq!(packed, expected, "packed bytes moved");
        assert!(is_packed(&packed));
        let singles: Vec<String> = members
            .iter()
            .map(|&(t, key)| templates[t].render_key(key))
            .collect();
        assert_eq!(split_prompt(&packed), singles);
    }
}
