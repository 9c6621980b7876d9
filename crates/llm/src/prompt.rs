//! Prompt construction: turning relational requests into prompts.
//!
//! Every LLM-backed operator describes what it needs as a [`TaskSpec`]. The
//! spec renders to a prompt with three sections:
//!
//! * `### TASK` — a compact, machine-readable header (key/value lines). The
//!   simulator keys off this section; a real deployment benefits from it too
//!   because it pins the expected output format.
//! * `### CONTEXT` — the natural-language description of the virtual relation
//!   and its attributes, taken from the `COMMENT`s of the schema.
//! * `### INSTRUCTIONS` — the answer-format contract (one value per line,
//!   pipe-separated rows, "yes"/"no", ...).
//!
//! # One renderer
//!
//! A scan asks hundreds of prompts that differ in a few bytes, so prompt
//! text is produced in two steps and nowhere else:
//!
//! * A [`PromptTemplate`] **fixes** everything a plan's prompts share — the
//!   task kind, the table, the column list, the filter or condition text,
//!   the whole `### CONTEXT` section and the instruction boilerplate —
//!   written once into one buffer, with the positions of the varying fields
//!   marked.
//! * `render` **writes** only those fields — the entity key, in the `key:`
//!   line and where the instructions name the entity; or the page's limit
//!   and offset, with the "skipping the first …" clause that exists only at
//!   a non-zero offset — between slices of that buffer, into one `String` of
//!   exactly the final size.
//!
//! A run of keys renders as one template too (`write_keys`): one key is
//! exactly [`PromptTemplate::render_key`]'s prompt; several are the fixed
//! text once, one `key:` line per key in order, and instructions that name
//! "each entity named on a `key:` line" and ask for one answer section per
//! entity. That is the section a packed request carries ([`crate::batch`]),
//! and `KeyedSection` reads it back into the one-key prompts it stands for,
//! byte for byte.
//!
//! [`TaskSpec::to_prompt`] is the one-off form: it builds the template and
//! renders it once. The model is addressed by prompt text (prompt cache,
//! single-flight table, recorded replays), so the bytes are pinned by
//! snapshot (`tests/prompt_bytes.rs`).
//!
//! [`parse_task`] recovers the spec from a prompt; `build → parse` round-trips
//! (property-tested in `lib.rs`).
//!
//! # One escaping rule
//!
//! Every string the engine did not write itself (schema names and
//! descriptions, filter, condition, statement, entity key) is written, in
//! header and prose alike, with `\` as `\\`, a newline as `\n` and a carriage
//! return as `\r`; in the ` | `-joined `columns:` list a `|` is also `\|`.
//! [`parse_task`] undoes it. So every prompt line starts with the engine's
//! own text, or with the statement's keyword, and no content can forge a
//! heading (`### ` at a line start) or [`crate::batch`]'s separator line.
//! A string with none of these characters keeps its bytes.

use std::borrow::Cow;
use std::fmt::Write;

use llmsql_types::{Error, Result, Schema};

use crate::batch::BATCH_SEPARATOR;

/// The kinds of requests the engine sends to the model.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskSpec {
    /// Enumerate entity keys of a virtual relation.
    Enumerate {
        /// Relation name.
        table: String,
        /// Optional SQL filter predicate (over the relation's columns).
        filter: Option<String>,
        /// Maximum number of keys to return.
        limit: usize,
        /// How many keys to skip (pagination).
        offset: usize,
    },
    /// Return whole rows (selected columns) of a virtual relation.
    RowBatch {
        /// Relation name.
        table: String,
        /// Columns to return, in order.
        columns: Vec<String>,
        /// Optional SQL filter predicate.
        filter: Option<String>,
        /// Maximum number of rows to return.
        limit: usize,
        /// How many rows to skip (pagination).
        offset: usize,
    },
    /// Return the requested attributes of a single entity.
    Lookup {
        /// Relation name.
        table: String,
        /// The entity key, rendered as text.
        key: String,
        /// Columns to return, in order.
        columns: Vec<String>,
    },
    /// Ask whether one entity satisfies a predicate (yes/no).
    FilterCheck {
        /// Relation name.
        table: String,
        /// The entity key, rendered as text.
        key: String,
        /// SQL predicate to check.
        condition: String,
    },
    /// Execute an entire SQL query in one shot.
    FullQuery {
        /// The SQL text.
        sql: String,
        /// The output column names the caller expects.
        columns: Vec<String>,
    },
}

impl TaskSpec {
    /// The relation this task targets (`None` for full-query prompts).
    pub fn table(&self) -> Option<&str> {
        match self {
            TaskSpec::Enumerate { table, .. }
            | TaskSpec::RowBatch { table, .. }
            | TaskSpec::Lookup { table, .. }
            | TaskSpec::FilterCheck { table, .. } => Some(table),
            TaskSpec::FullQuery { .. } => None,
        }
    }

    /// Short label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            TaskSpec::Enumerate { .. } => "enumerate",
            TaskSpec::RowBatch { .. } => "row_batch",
            TaskSpec::Lookup { .. } => "lookup",
            TaskSpec::FilterCheck { .. } => "filter_check",
            TaskSpec::FullQuery { .. } => "full_query",
        }
    }

    /// Build the full prompt text for this task against the given schema:
    /// the task's [`PromptTemplate`], rendered once.
    pub fn to_prompt(&self, schema: Option<&Schema>) -> String {
        match self {
            TaskSpec::Enumerate {
                table,
                filter,
                limit,
                offset,
            } => PromptTemplate::enumerate(table, filter.as_deref(), schema)
                .render_page(*limit, *offset),
            TaskSpec::RowBatch {
                table,
                columns,
                filter,
                limit,
                offset,
            } => PromptTemplate::row_batch(table, columns, filter.as_deref(), schema)
                .render_page(*limit, *offset),
            TaskSpec::Lookup {
                table,
                key,
                columns,
            } => PromptTemplate::lookup(table, columns, schema).render_key(key),
            TaskSpec::FilterCheck {
                table,
                key,
                condition,
            } => PromptTemplate::filter_check(table, condition, schema).render_key(key),
            TaskSpec::FullQuery { sql, columns } => {
                PromptTemplate::full_query(sql, columns, schema).text
            }
        }
    }
}

/// A field [`PromptTemplate::render`] writes: the only bytes that differ
/// between the prompts of one plan.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The `key:` header line's value: the entity key, escaped; in a packed
    /// section, every key, each on a `key:` line of its own.
    Key,
    /// Where the instructions name the entity: `one` and the quoted key, or
    /// `each` in a packed section.
    Entity(&'static Naming),
    /// The page's row limit.
    Limit,
    /// The page's offset.
    Offset,
    /// `, skipping the first {offset} {what}` — written only when the offset
    /// is non-zero.
    Skipping(&'static str),
}

const SKIPPING: &str = ", skipping the first ";

/// What starts a `key:` header line.
const KEY_LINE: &str = "\nkey: ";

/// The heading that opens the instructions.
const INSTRUCTIONS: &str = "\n### INSTRUCTIONS\n";

/// How the instructions of a per-tuple prompt name its entity.
#[derive(Debug)]
struct Naming {
    /// Before the quoted key of a one-key prompt.
    one: &'static str,
    /// In place of `one` and the key in a packed section.
    each: &'static str,
}

const LOOKUP_NAMING: Naming = Naming {
    one: "For the single entity identified by ",
    each: "For each entity named on a `key:` line",
};

const CHECK_NAMING: Naming = Naming {
    one: "Consider the entity identified by ",
    each: "Consider each entity named on a `key:` line",
};

/// The sentence that closes a packed section's instructions, around the
/// separator line it asks for.
const EACH_ANSWER: [&str; 2] = [
    " Answer the entities in the order of their `key:` lines, one section \
     each, with a line reading exactly \"",
    "\" between two sections.",
];

/// An untrusted string as the prompt holds it: one line (see the module
/// docs). An item of a list also has its `|` escaped: the list's separator.
fn escape_value(value: &str, in_list: bool) -> Cow<'_, str> {
    let special = |c: char| matches!(c, '\\' | '\n' | '\r') || (in_list && c == '|');
    if !value.contains(special) {
        return Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len() + 8);
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '|' if in_list => out.push_str("\\|"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// The value a header line holds, [`escape_value`] undone. A backslash before
/// anything else stands for itself: no writer of ours produces one.
fn unescape_value(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('|') => out.push('|'),
            Some('\\') | None => out.push('\\'),
            Some(other) => out.extend(['\\', other]),
        }
    }
    out
}

/// The items of a list header line: cut at every `|` no backslash escapes,
/// less the one space on each side of it the writer puts there, then each
/// read as a value. Empty items are skipped.
fn unescape_list(line: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut escaped = false;
    for (at, c) in line.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '|' {
            let item = &line[start..at];
            items.push(item.strip_suffix(' ').unwrap_or(item));
            start = at + 1 + usize::from(line[at + 1..].starts_with(' '));
        }
    }
    items.push(&line[start..]);
    items
        .into_iter()
        .filter(|item| !item.is_empty())
        .map(unescape_value)
        .collect()
}

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

fn push_number(out: &mut String, n: usize) {
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Everything the prompts of one plan have in common, rendered once (see the
/// module docs). Build it with the constructor named after the task kind and
/// call [`PromptTemplate::render_key`] or [`PromptTemplate::render_page`] per
/// prompt; the result is byte-identical to [`TaskSpec::to_prompt`] of the
/// same task, which is implemented by exactly that.
#[derive(Debug, Clone)]
pub struct PromptTemplate {
    /// Every fixed byte of the prompt, in order.
    text: String,
    /// Where the varying fields go: positions in `text`, ascending.
    slots: Vec<(usize, Slot)>,
}

impl PromptTemplate {
    /// The template of [`TaskSpec::Enumerate`] prompts over `table`; render
    /// with [`PromptTemplate::render_page`].
    pub fn enumerate(table: &str, filter: Option<&str>, schema: Option<&Schema>) -> Self {
        let mut t = Self::begin("enumerate");
        t.line("table", table);
        t.page_lines(filter);
        t.context(schema);
        t.text.push_str(
            "You are acting as the storage layer of a relational database. \
             Using only your internal knowledge, list up to ",
        );
        t.slot(Slot::Limit);
        t.text
            .push_str(" distinct entities of the relation described above");
        if filter.is_some() {
            t.text.push_str(" that satisfy the filter condition");
        }
        t.slot(Slot::Skipping(" entities you would otherwise list"));
        t.text.push_str(
            ". Respond with exactly one entity identifier per line, no numbering, \
             no commentary. If you know fewer entities, list only those you know.",
        );
        t
    }

    /// The template of [`TaskSpec::RowBatch`] prompts for `columns` of
    /// `table`; render with [`PromptTemplate::render_page`].
    pub fn row_batch(
        table: &str,
        columns: &[impl AsRef<str>],
        filter: Option<&str>,
        schema: Option<&Schema>,
    ) -> Self {
        let mut t = Self::begin("row_batch");
        t.line("table", table);
        t.columns_line(columns);
        t.page_lines(filter);
        t.context(schema);
        t.text.push_str(
            "You are acting as the storage layer of a relational database. \
             Produce up to ",
        );
        t.slot(Slot::Limit);
        t.text
            .push_str(" rows of the relation described above, returning the columns [");
        t.joined(columns, ", ", false);
        t.text.push_str("] in that exact order");
        if filter.is_some() {
            t.text
                .push_str(", including only rows that satisfy the filter condition");
        }
        t.slot(Slot::Skipping(" rows you would otherwise return"));
        t.text.push_str(
            ". Respond with one row per line, column values separated by \" | \". \
             Write NULL for values you do not know. No header, no commentary.",
        );
        t
    }

    /// The template of [`TaskSpec::Lookup`] prompts for `columns` of one
    /// entity of `table`; render with [`PromptTemplate::render_key`].
    pub fn lookup(table: &str, columns: &[impl AsRef<str>], schema: Option<&Schema>) -> Self {
        let mut t = Self::begin("lookup");
        t.line("table", table);
        t.key_line();
        t.columns_line(columns);
        t.context(schema);
        t.text
            .push_str("You are acting as the storage layer of a relational database. ");
        t.slot(Slot::Entity(&LOOKUP_NAMING));
        t.text.push_str(", return the values of the columns [");
        t.joined(columns, ", ", false);
        t.text.push_str(
            "] in that exact order on one line, separated by \" | \". Write NULL for values \
             you do not know. No commentary.",
        );
        t
    }

    /// The template of [`TaskSpec::FilterCheck`] prompts asking `condition`
    /// of one entity of `table`; render with [`PromptTemplate::render_key`].
    pub fn filter_check(table: &str, condition: &str, schema: Option<&Schema>) -> Self {
        let mut t = Self::begin("filter_check");
        t.line("table", table);
        t.key_line();
        t.line("condition", condition);
        t.context(schema);
        t.slot(Slot::Entity(&CHECK_NAMING));
        t.text
            .push_str(" in the relation described above. Does it satisfy the condition `");
        t.text.push_str(&escape_value(condition, false));
        t.text.push_str(
            "`? Answer with exactly one word: \"yes\" or \"no\". If you are unsure, answer \
             \"unknown\".",
        );
        t
    }

    /// The [`TaskSpec::FullQuery`] prompt: nothing in it varies.
    fn full_query(sql: &str, columns: &[String], schema: Option<&Schema>) -> Self {
        let mut t = Self::begin("full_query");
        t.line("sql", sql);
        t.columns_line(columns);
        t.context(schema);
        t.text.push_str(
            "You are acting as a complete SQL database engine whose data is your internal \
             world knowledge. Execute the following SQL query and return the result table:\n",
        );
        t.text.push_str(&escape_value(sql, false));
        t.text.push_str(
            "\nRespond with one result row per line, column values separated by \" | \", \
             in the column order of the SELECT list. Write NULL for unknown values. \
             No header, no commentary.",
        );
        t
    }

    /// The prompt for the entity `key`.
    pub fn render_key(&self, key: &str) -> String {
        self.render(key, 0, 0)
    }

    /// The prompt for the page of up to `limit` rows starting at `offset`.
    pub fn render_page(&self, limit: usize, offset: usize) -> String {
        self.render("", limit, offset)
    }

    /// Append the prompt of a run of entity keys to `out` (see the module
    /// docs): for one key exactly [`PromptTemplate::render_key`]'s, for more
    /// one packed section that states the fixed text once.
    pub(crate) fn write_keys(&self, out: &mut String, keys: &[&str]) {
        let keys: Vec<Cow<'_, str>> = keys.iter().map(|key| escape_value(key, false)).collect();
        self.write(out, &keys, 0, 0);
    }

    /// Copy the fixed text, writing each slot's field where it belongs.
    fn render(&self, key: &str, limit: usize, offset: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, &[escape_value(key, false)], limit, offset);
        out
    }

    /// Append the fixed text to `out`, each slot's field where it belongs:
    /// `keys` (escaped) are one prompt's key, or a packed section's. `out`
    /// grows once, by exactly what is written.
    fn write(&self, out: &mut String, keys: &[Cow<'_, str>], limit: usize, offset: usize) {
        let key_bytes: usize = keys.iter().map(|key| key.len()).sum();
        let width = |slot: Slot| match (slot, keys) {
            (Slot::Key, _) => key_bytes + KEY_LINE.len() * keys.len().saturating_sub(1),
            (Slot::Entity(naming), [key]) => naming.one.len() + 2 + key.len(),
            (Slot::Entity(naming), _) => {
                naming.each.len()
                    + EACH_ANSWER[0].len()
                    + BATCH_SEPARATOR.len()
                    + EACH_ANSWER[1].len()
            }
            (Slot::Limit, _) => digits(limit),
            (Slot::Offset, _) => digits(offset),
            (Slot::Skipping(_), _) if offset == 0 => 0,
            (Slot::Skipping(what), _) => SKIPPING.len() + digits(offset) + what.len(),
        };
        let fields: usize = self.slots.iter().map(|&(_, slot)| width(slot)).sum();
        out.reserve_exact(self.text.len() + fields);
        let mut named_each = false;
        let mut from = 0;
        for &(at, slot) in &self.slots {
            out.push_str(&self.text[from..at]);
            from = at;
            match slot {
                Slot::Key => {
                    for (i, key) in keys.iter().enumerate() {
                        if i > 0 {
                            out.push_str(KEY_LINE);
                        }
                        out.push_str(key);
                    }
                }
                Slot::Entity(naming) => match keys {
                    [key] => {
                        out.push_str(naming.one);
                        out.push('"');
                        out.push_str(key);
                        out.push('"');
                    }
                    _ => {
                        out.push_str(naming.each);
                        named_each = true;
                    }
                },
                Slot::Limit => push_number(out, limit),
                Slot::Offset => push_number(out, offset),
                Slot::Skipping(_) if offset == 0 => {}
                Slot::Skipping(what) => {
                    out.push_str(SKIPPING);
                    push_number(out, offset);
                    out.push_str(what);
                }
            }
        }
        out.push_str(&self.text[from..]);
        if named_each {
            out.push_str(EACH_ANSWER[0]);
            out.push_str(BATCH_SEPARATOR);
            out.push_str(EACH_ANSWER[1]);
        }
    }

    /// The `### TASK` header up to the task kind.
    fn begin(kind: &str) -> Self {
        PromptTemplate {
            text: format!("### TASK\nkind: {kind}"),
            slots: Vec::new(),
        }
    }

    /// Mark the end of the text so far as the place of a varying field.
    fn slot(&mut self, slot: Slot) {
        self.slots.push((self.text.len(), slot));
    }

    /// One `name: value` header line.
    fn line(&mut self, name: &str, value: &str) {
        // Writing to a `String` cannot fail.
        let _ = write!(self.text, "\n{name}: {}", escape_value(value, false));
    }

    /// `items`, escaped (as list items when `in_list`) and separated by
    /// `separator`.
    fn joined(&mut self, items: &[impl AsRef<str>], separator: &str, in_list: bool) {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.text.push_str(separator);
            }
            self.text.push_str(&escape_value(item.as_ref(), in_list));
        }
    }

    /// The `columns:` header line: a list.
    fn columns_line(&mut self, columns: &[impl AsRef<str>]) {
        self.text.push_str("\ncolumns: ");
        self.joined(columns, " | ", true);
    }

    /// The `key:` header line.
    fn key_line(&mut self) {
        self.text.push_str(KEY_LINE);
        self.slot(Slot::Key);
    }

    /// The header lines of a paginated task: filter, limit, offset.
    fn page_lines(&mut self, filter: Option<&str>) {
        if let Some(filter) = filter {
            self.line("filter", filter);
        }
        self.text.push_str("\nlimit: ");
        self.slot(Slot::Limit);
        self.text.push_str("\noffset: ");
        self.slot(Slot::Offset);
    }

    /// The `### CONTEXT` section and the `### INSTRUCTIONS` heading.
    fn context(&mut self, schema: Option<&Schema>) {
        self.text.push_str("\n### CONTEXT\n");
        match schema {
            Some(schema) => write_schema(&mut self.text, schema),
            None => self.text.push_str("(no additional context)"),
        }
        self.text.push_str(INSTRUCTIONS);
    }
}

/// A packed section (see the module docs) cut around its keys: each key it
/// holds stands for the prompt `head`, key, `middle`, the one-key naming,
/// `rest` — exactly [`PromptTemplate::render_key`]'s for that key.
#[derive(Debug)]
pub(crate) struct KeyedSection<'a> {
    /// Up to the first key: the header's `### TASK` … `key: `.
    head: &'a str,
    /// The values of the `key:` lines as written, joined by [`KEY_LINE`].
    keys: &'a str,
    /// From the end of the last key line to where the instructions name the
    /// entity.
    middle: &'a str,
    naming: &'static Naming,
    /// The instructions after the naming, without the closing sentence.
    rest: &'a str,
}

impl<'a> KeyedSection<'a> {
    /// `section` cut around its keys, if it is a lookup or filter-check
    /// section of two or more; `None` when it is one prompt.
    ///
    /// Every cut is at text the engine wrote: the header lines before and
    /// between the keys are one line each (their values are escaped), the
    /// context is one line, and the instructions before the naming are
    /// fixed text.
    pub(crate) fn parse(section: &'a str) -> Option<Self> {
        let kind = section.strip_prefix("### TASK\nkind: ")?;
        let naming = match &kind[..kind.find('\n')?] {
            "lookup" => &LOOKUP_NAMING,
            "filter_check" => &CHECK_NAMING,
            _ => return None,
        };
        let first = section.find(KEY_LINE)? + KEY_LINE.len();
        let mut end = first;
        loop {
            end += section[end..].find('\n')?;
            if !section[end..].starts_with(KEY_LINE) {
                break;
            }
            end += KEY_LINE.len();
        }
        let keys = &section[first..end];
        if !keys.contains(KEY_LINE) {
            return None;
        }
        let body = section
            .strip_suffix(EACH_ANSWER[1])?
            .strip_suffix(BATCH_SEPARATOR)?
            .strip_suffix(EACH_ANSWER[0])?;
        let instructions = end + body.get(end..)?.find(INSTRUCTIONS)? + INSTRUCTIONS.len();
        let named = instructions + body[instructions..].find(naming.each)?;
        Some(KeyedSection {
            head: &section[..first],
            keys,
            middle: &section[end..named],
            naming,
            rest: &body[named + naming.each.len()..],
        })
    }

    /// The one-key prompts the section stands for, in key order.
    pub(crate) fn members(&self) -> impl Iterator<Item = String> + '_ {
        let naming = self.naming.one;
        self.keys.split(KEY_LINE).map(move |key| {
            [
                self.head,
                key,
                self.middle,
                naming,
                "\"",
                key,
                "\"",
                self.rest,
            ]
            .concat()
        })
    }
}

/// Natural-language description of a relation used in the CONTEXT section.
fn write_schema(out: &mut String, schema: &Schema) {
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "The relation '{}' describes {}. Its columns are: ",
        escape_value(&schema.name, false),
        escape_value(&schema.prompt_phrase(), false)
    );
    for (i, column) in schema.columns.iter().enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        let data_type = column.data_type.to_string().to_lowercase();
        let _ = write!(out, "{} ({data_type}", escape_value(&column.name, false));
        if let Some(description) = &column.description {
            let _ = write!(out, ", {}", escape_value(description, false));
        }
        if column.primary_key {
            out.push_str(", identifies the entity");
        }
        out.push(')');
    }
    out.push('.');
}

/// Recover the [`TaskSpec`] from a prompt built by [`TaskSpec::to_prompt`].
pub fn parse_task(prompt: &str) -> Result<TaskSpec> {
    // A heading is `### ` at the start of a line; the header runs from the
    // `### TASK` line to the next heading.
    let mut lines = prompt
        .lines()
        .skip_while(|line| !line.starts_with("### TASK"));
    lines
        .next()
        .ok_or_else(|| Error::llm("prompt has no ### TASK section"))?;
    // Values stay as written until asked for: how one is read depends on
    // the field.
    let mut kind = None;
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for line in lines.take_while(|line| !line.starts_with("### ")) {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        // The writer puts one space after the colon; any other is the value's.
        let v = v.strip_prefix(' ').unwrap_or(v);
        if k == "kind" {
            kind = Some(unescape_value(v));
        } else {
            fields.push((k, v));
        }
    }
    let kind = kind.ok_or_else(|| Error::llm("task header missing 'kind'"))?;
    let raw = |name: &str| fields.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
    let missing = |name: &str| Error::llm(format!("task header missing '{name}'"));
    let get = |name: &str| raw(name).map(unescape_value);
    let require = |name: &str| get(name).ok_or_else(|| missing(name));
    let parse_usize = |name: &str, default: usize| -> usize {
        raw(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let columns = || raw("columns").map(unescape_list);

    let spec = match kind.as_str() {
        "enumerate" => TaskSpec::Enumerate {
            table: require("table")?,
            filter: get("filter"),
            limit: parse_usize("limit", 100),
            offset: parse_usize("offset", 0),
        },
        "row_batch" => TaskSpec::RowBatch {
            table: require("table")?,
            columns: columns().ok_or_else(|| missing("columns"))?,
            filter: get("filter"),
            limit: parse_usize("limit", 100),
            offset: parse_usize("offset", 0),
        },
        "lookup" => TaskSpec::Lookup {
            table: require("table")?,
            key: require("key")?,
            columns: columns().ok_or_else(|| missing("columns"))?,
        },
        "filter_check" => TaskSpec::FilterCheck {
            table: require("table")?,
            key: require("key")?,
            condition: require("condition")?,
        },
        "full_query" => TaskSpec::FullQuery {
            sql: require("sql")?,
            columns: columns().unwrap_or_default(),
        },
        other => return Err(Error::llm(format!("unknown task kind '{other}'"))),
    };
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsql_types::{Column, DataType};

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

    #[test]
    fn describe_schema_mentions_columns_and_descriptions() {
        let mut d = String::new();
        write_schema(&mut d, &schema());
        assert!(d.contains("sovereign countries"));
        assert!(d.contains("population in 2023"));
        assert!(d.contains("identifies the entity"));
    }

    #[test]
    fn prompt_has_three_sections() {
        let spec = TaskSpec::RowBatch {
            table: "countries".into(),
            columns: vec!["name".into(), "population".into()],
            filter: Some("population > 50000000".into()),
            limit: 20,
            offset: 0,
        };
        let p = spec.to_prompt(Some(&schema()));
        assert!(p.contains("### TASK"));
        assert!(p.contains("### CONTEXT"));
        assert!(p.contains("### INSTRUCTIONS"));
        assert!(p.contains("kind: row_batch"));
        assert!(p.contains("filter: population > 50000000"));
    }

    #[test]
    fn roundtrip_all_kinds() {
        let specs = vec![
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: None,
                limit: 50,
                offset: 10,
            },
            TaskSpec::Enumerate {
                table: "countries".into(),
                filter: Some("(population > 1000)".into()),
                limit: 5,
                offset: 0,
            },
            TaskSpec::RowBatch {
                table: "countries".into(),
                columns: vec!["name".into(), "capital".into()],
                filter: Some("region = 'Europe'".into()),
                limit: 20,
                offset: 40,
            },
            TaskSpec::Lookup {
                table: "countries".into(),
                key: "France".into(),
                columns: vec!["capital".into(), "population".into()],
            },
            TaskSpec::FilterCheck {
                table: "countries".into(),
                key: "Japan".into(),
                condition: "population > 100000000".into(),
            },
            TaskSpec::FullQuery {
                sql: "SELECT name FROM countries WHERE population > 5".into(),
                columns: vec!["name".into()],
            },
        ];
        for spec in specs {
            let prompt = spec.to_prompt(Some(&schema()));
            let parsed = parse_task(&prompt).unwrap();
            assert_eq!(parsed, spec, "prompt was:\n{prompt}");
        }
    }

    #[test]
    fn a_template_renders_what_to_prompt_does_into_an_exactly_sized_string() {
        let schema = schema();
        let columns = vec!["name".to_string(), "population".to_string()];
        let pages = [
            PromptTemplate::row_batch("countries", &columns, Some("population > 5"), Some(&schema)),
            PromptTemplate::row_batch("countries", &columns, None, None),
        ];
        for (limit, offset) in [
            (1, 0),
            (9, 9),
            (10, 10),
            (100, 99),
            (usize::MAX, usize::MAX),
        ] {
            for (template, filter) in pages.iter().zip([Some("population > 5"), None]) {
                let prompt = template.render_page(limit, offset);
                let spec = TaskSpec::RowBatch {
                    table: "countries".into(),
                    columns: columns.clone(),
                    filter: filter.map(String::from),
                    limit,
                    offset,
                };
                assert_eq!(prompt, spec.to_prompt(filter.map(|_| &schema)));
                assert_eq!(
                    prompt.capacity(),
                    prompt.len(),
                    "sized for {limit} + {offset}"
                );
            }
            let prompt = PromptTemplate::enumerate("countries", None, Some(&schema))
                .render_page(limit, offset);
            assert_eq!(
                prompt.capacity(),
                prompt.len(),
                "sized for {limit} + {offset}"
            );
        }
        let lookups = PromptTemplate::lookup("countries", &columns, Some(&schema));
        for key in ["", "France", "Côte d'Ivoire", "a \"quoted\" | key"] {
            let prompt = lookups.render_key(key);
            let spec = TaskSpec::Lookup {
                table: "countries".into(),
                key: key.into(),
                columns: columns.clone(),
            };
            assert_eq!(prompt, spec.to_prompt(Some(&schema)));
            assert_eq!(prompt.capacity(), prompt.len(), "sized for {key:?}");
        }
        let mut packed = String::new();
        lookups.write_keys(&mut packed, &["", "France", "a \"quoted\" | key"]);
        assert_eq!(packed.capacity(), packed.len(), "sized for a run of keys");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_task("what is the capital of France?").is_err());
        assert!(parse_task("### TASK\ntable: t").is_err());
        assert!(parse_task("### TASK\nkind: teleport\ntable: t").is_err());
        assert!(parse_task("### TASK\nkind: lookup\ntable: t").is_err()); // missing key
    }

    #[test]
    fn task_accessors() {
        let spec = TaskSpec::Lookup {
            table: "t".into(),
            key: "k".into(),
            columns: vec!["a".into()],
        };
        assert_eq!(spec.table(), Some("t"));
        assert_eq!(spec.kind(), "lookup");
        let fq = TaskSpec::FullQuery {
            sql: "SELECT 1".into(),
            columns: vec![],
        };
        assert_eq!(fq.table(), None);
    }
}
