//! Parsing model completions back into relational data.
//!
//! Completions are noisy: they may contain markdown bullets, stray
//! commentary, a header row the model added anyway, rows with the wrong
//! number of fields, or "I'm not sure" hedging. The parsers here are tolerant
//! by design — a malformed line is dropped (and counted) rather than aborting
//! the query, mirroring how the paper's prototype copes with free-form model
//! output.
//!
//! # One scanner, and the caller's sink
//!
//! Every answer that holds rows — a page, a lookup, a key list, a whole
//! query's result — is read by one scanner, which walks the borrowed
//! answer text once: it cuts a line, decides whether the line is data (below),
//! strips a list bullet, and reads each `|`-field straight into a typed
//! cell. It allocates what a kept cell owns and one cell buffer per answer;
//! there is no `Vec` of lines, of fields or of half-typed rows. Each data
//! line's cells are handed to a *sink* the caller supplies, which moves them
//! to where the result keeps them:
//!
//! * [`scan_pipe_rows`] and [`scan_value_lines`] take the sink as a closure
//!   over [`Value`] cells, a text cell owning its `String` (a lookup fills a
//!   source row's missing cells in place, a key list builds key rows), and
//!   [`parse_pipe_rows`] / [`parse_value_lines`] are the sink that collects
//!   narrow rows.
//! * The **page index** is the sink a page scan reads through. It keeps,
//!   for each data line, one 16-byte cell per asked column — NULL, a
//!   boolean, a number, or a text cell that is a `u32` start and length into
//!   the answer, so it owns no text — and the answer's data-line and
//!   dropped-line counts. An [`Answer`] keeps the index it was first read for
//!   beside its text, so an answer read again (a cache hit, a coalesced
//!   follower) is not scanned again: [`Page::rows`] builds its rows from the
//!   cells, allocating only what each row owns, and [`Page::decode_each`]
//!   writes them one at a time into one row its caller reuses, for a reader
//!   that keeps none of them. Both sinks read a field by the one rule of
//!   [`llm_field`].
//!
//! # What is not data
//!
//! * **Markup**: an empty line, a markdown table rule (only `-|+=:` and
//!   spaces), a code fence, a parenthetical aside such as `(no results)`.
//!   Skipped, not counted.
//! * **Chatter**: a line that starts with one of the openers a model puts
//!   before or after its answer (`Here are`, `Here is`, `Sure`, `Note:`,
//!   `I am`, `I'm`, `As an AI`, `The following`; any case) **and** gives
//!   more evidence than that: the opener is directly followed by `,` `:`
//!   `!` or `.`, or the line ends in `:`. A title can start like commentary
//!   (`I Am Legend`, `Sure Thing`, `Note: Unsent`, `The Following`), and a
//!   data row skipped as chatter reads as a short page, which ends a scan
//!   early — so the first words alone are never enough, and when more than
//!   one column was asked for, a line that holds the `|` separator is data
//!   whatever it starts with. Skipped, not counted.
//! * **A header** the model added anyway: the first line that could be a row
//!   is taken for column names if it has exactly the asked number of fields,
//!   none empty or a NULL word, and some numeric column's field is not a
//!   number *to the lenient reader the row would be read by* — so `name |
//!   population` is a header and `Tokyo | 37,400,000` or `Everest | 8849 m`
//!   is a row. Skipped, not counted.
//! * **Unusable lines**: no separator where several columns were asked for,
//!   or every cell NULL (but a line of a one-value-per-line answer that says
//!   NULL for a text column is a NULL value, not a dropped line). Dropped and
//!   counted — a page's line count decides whether the relation went on.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use llmsql_types::value::{
    is_nullish, llm_field, parse_bool_lenient, parse_float_lenient, parse_int_lenient,
};
use llmsql_types::{DataType, Error, Result, Row, Value};

use crate::model::CompletionResponse;

/// Outcome of parsing a completion into rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedRows {
    /// Successfully parsed rows.
    pub rows: Vec<Row>,
    /// Lines that could not be interpreted and were dropped.
    pub dropped_lines: usize,
}

/// How a data line divides into cells.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// `|`-separated fields, one per asked column.
    Pipes,
    /// The whole line is one value.
    WholeLine,
}

/// How the scanner reads a field into a cell. Every reader reads a field by
/// the rule of [`llm_field`]; they differ only in where a text cell lives.
trait Reader {
    /// What a field becomes.
    type Cell: Clone + Default;
    /// The cell `field`, a slice of the answer being scanned, reads as in a
    /// column of `ty`.
    fn read(&mut self, field: &str, ty: DataType) -> Self::Cell;
    /// Whether `cell` holds no value.
    fn is_null(cell: &Self::Cell) -> bool;
}

/// Cells as [`Value`]s: a text cell owns its `String`.
struct Values;

impl Reader for Values {
    type Cell = Value;

    fn read(&mut self, field: &str, ty: DataType) -> Value {
        Value::from_llm_text(field, ty)
    }

    fn is_null(cell: &Value) -> bool {
        cell.is_null()
    }
}

/// A cell of the page index: a value whose text stays in the answer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Cell {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// `len` bytes of the answer from `start`.
    Text {
        start: u32,
        len: u32,
    },
}

// The index keeps one of these per asked column of each data line: a decoded
// `Value` would be half as large again, and its text would be a copy.
const _: () = assert!(std::mem::size_of::<Cell>() == 16);

/// `n`, an offset into an answer, as an index. Lossless wherever pointers
/// have 32 bits or more, and an answer's offsets fit any narrower `usize`.
fn widen(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

impl Cell {
    /// The value this cell of `answer` holds.
    fn value(self, answer: &str) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Text { start, len } => {
                let start = widen(start);
                Value::Text(answer[start..start + widen(len)].to_string())
            }
        }
    }

    /// Write the value this cell of `answer` holds into `slot`: a text cell
    /// into the `String` the slot already holds, if it holds one.
    fn decode_into(self, answer: &str, slot: &mut Value) {
        match (self, slot) {
            (Cell::Text { start, len }, Value::Text(text)) => {
                let start = widen(start);
                text.clear();
                text.push_str(&answer[start..start + widen(len)]);
            }
            (cell, slot) => *slot = cell.value(answer),
        }
    }
}

/// Cells as the page index keeps them: a text cell is a range of `answer`.
struct Ranges<'t> {
    answer: &'t str,
    /// False once some text cell's offsets did not fit a `u32`: the index is
    /// then not built (see [`PageIndex::build`]).
    fits: bool,
}

impl Reader for Ranges<'_> {
    type Cell = Cell;

    fn read(&mut self, field: &str, ty: DataType) -> Cell {
        let Some(value) = llm_field(field) else {
            return Cell::Null;
        };
        match ty {
            DataType::Text => {
                // `value` is a slice of the answer, so it starts at or after
                // the answer does.
                let start = value
                    .as_ptr()
                    .addr()
                    .checked_sub(self.answer.as_ptr().addr());
                let start = start.and_then(|start| u32::try_from(start).ok());
                match (start, u32::try_from(value.len())) {
                    (Some(start), Ok(len)) => Cell::Text { start, len },
                    _ => {
                        self.fits = false;
                        Cell::Null
                    }
                }
            }
            DataType::Int => parse_int_lenient(value).map_or(Cell::Null, Cell::Int),
            DataType::Float => parse_float_lenient(value).map_or(Cell::Null, Cell::Float),
            DataType::Bool => parse_bool_lenient(value).map_or(Cell::Null, Cell::Bool),
        }
    }

    fn is_null(cell: &Cell) -> bool {
        *cell == Cell::Null
    }
}

/// The first line of `text` without its `\n`, and the text after it.
fn cut_line(text: &str) -> (&str, &str) {
    match text.bytes().position(|b| b == b'\n') {
        // `at` is where an ASCII byte sits: a char boundary, as is `at + 1`.
        Some(at) => (&text[..at], &text[at + 1..]),
        None => (text, ""),
    }
}

/// True for lines that are formatting, not data (markdown table rules, code
/// fences, parenthetical asides such as "(no results)"). `line` is trimmed
/// and not empty.
fn is_markup(line: &str) -> bool {
    let bytes = line.as_bytes();
    bytes
        .iter()
        .all(|b| matches!(b, b'-' | b'|' | b'+' | b' ' | b'=' | b':'))
        || line.starts_with("```")
        || (bytes.first() == Some(&b'(') && bytes.last() == Some(&b')'))
}

/// True for hedging and commentary: `line` (trimmed) starts with an opener
/// and either the opener is directly followed by `,` `:` `!` `.` or the
/// line ends in `:` (see the module docs for why its first words alone do
/// not make a line chatter).
fn is_chatter(line: &str) -> bool {
    const OPENERS: [&str; 8] = [
        "here are",
        "here is",
        "sure",
        "note:",
        "i am",
        "i'm",
        "as an ai",
        "the following",
    ];
    let bytes = line.as_bytes();
    let ends_in_colon = bytes.last() == Some(&b':');
    // The evidence first: nearly every line fails it on one byte.
    OPENERS.iter().any(|opener| {
        (ends_in_colon || matches!(bytes.get(opener.len()), Some(b',' | b':' | b'!' | b'.')))
            && bytes
                .get(..opener.len())
                .is_some_and(|start| start.eq_ignore_ascii_case(opener.as_bytes()))
    })
}

/// Strip a leading enumeration marker such as `1. `, `2) `, `- `, `* ` from
/// a line with no leading whitespace.
fn strip_bullet(line: &str) -> &str {
    if let Some(rest) = line.strip_prefix("- ").or_else(|| line.strip_prefix("* ")) {
        return rest;
    }
    // "12. " / "12) "
    let digits = line.bytes().take_while(u8::is_ascii_digit).count();
    if (1..=3).contains(&digits) {
        // ASCII digits were counted: `digits` is a char boundary.
        let rest = &line[digits..];
        if let Some(rest) = rest.strip_prefix(". ").or_else(|| rest.strip_prefix(") ")) {
            return rest;
        }
    }
    line
}

/// The `|`-separated fields of a line, or the line as its one field.
struct Fields<'a> {
    rest: Option<&'a str>,
    split: bool,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest.take()?;
        let cut = if self.split {
            rest.bytes().position(|b| b == b'|')
        } else {
            None
        };
        let Some(at) = cut else {
            return Some(rest);
        };
        // `at` is where an ASCII byte sits: a char boundary, as is `at + 1`.
        self.rest = Some(&rest[at + 1..]);
        Some(&rest[..at])
    }
}

/// Whether a line with as many fields as asked columns names the columns
/// instead of filling them: some numeric column's cell did not read as a
/// number (`cells` are the line's fields as a row would hold them), and no
/// field is empty or a NULL word.
fn looks_like_header<R: Reader>(line: &str, types: &[DataType], cells: &[R::Cell]) -> bool {
    let unread_number = |(ty, cell): (&DataType, &R::Cell)| ty.is_numeric() && R::is_null(cell);
    types.iter().zip(cells).any(unread_number)
        && Fields {
            rest: Some(line),
            split: true,
        }
        .map(str::trim)
        .all(|field| !field.is_empty() && !is_nullish(field))
}

/// The one reader of answer text (see the module docs): hand the cells
/// `reader` reads from every data line of `text` to `sink` and return how
/// many lines were dropped as unusable. The cells are one per entry of
/// `types` (one text cell if there is none); the sink takes the values it
/// keeps out of the slice, which the next line overwrites.
fn scan<R: Reader>(
    text: &str,
    types: &[DataType],
    layout: Layout,
    reader: &mut R,
    mut sink: impl FnMut(&mut [R::Cell]),
) -> usize {
    let mut cells = vec![R::Cell::default(); types.len().max(1)];
    let mut dropped = 0;
    // The header guess is open until a header or a row was seen.
    let mut first = layout == Layout::Pipes;
    let mut rest = text;
    while !rest.is_empty() {
        let line;
        (line, rest) = cut_line(rest);
        let line = line.trim_start();
        let bare = line.trim_end();
        if bare.is_empty() || is_markup(bare) {
            continue;
        }
        if is_chatter(bare) && !(cells.len() > 1 && bare.contains('|')) {
            continue;
        }
        let line = strip_bullet(line);
        let mut fields = Fields {
            rest: Some(line),
            split: layout == Layout::Pipes,
        };
        let mut present = 0;
        for (at, cell) in cells.iter_mut().enumerate() {
            let ty = types.get(at).copied().unwrap_or(DataType::Text);
            let field = fields.next();
            present += usize::from(field.is_some());
            *cell = reader.read(field.unwrap_or(""), ty);
        }
        // Several columns asked for and no separator on the line.
        if cells.len() > 1 && present == 1 {
            dropped += 1;
            continue;
        }
        // As many fields as columns, checked only while the guess is open.
        if first
            && present == cells.len()
            && fields.next().is_none()
            && looks_like_header::<R>(line, types, &cells)
        {
            first = false;
            continue;
        }
        // A line with nothing in it is unusable — but a line that is one
        // text value may *say* NULL (the model named a key it has no word
        // for).
        let says_null = || {
            layout == Layout::WholeLine
                && types.first() == Some(&DataType::Text)
                && !line.trim().is_empty()
        };
        if cells.iter().all(R::is_null) && !says_null() {
            dropped += 1;
            continue;
        }
        first = false;
        sink(&mut cells);
    }
    dropped
}

/// Read a completion that should contain pipe-separated rows with the given
/// column types, handing each row's cells to `sink`: one per entry of `types`
/// (one text cell if there is none), in a slice the sink takes the values it
/// keeps out of and the next row overwrites. Returns the number of dropped
/// lines. Rows with too few fields are padded with NULL; rows with too many
/// are truncated; rows that do not contain the separator at all (when more
/// than one column was requested) or read as all NULL are dropped.
pub fn scan_pipe_rows(text: &str, types: &[DataType], sink: impl FnMut(&mut [Value])) -> usize {
    scan(text, types, Layout::Pipes, &mut Values, sink)
}

/// Read a completion that should contain one scalar value per line, handing
/// each value to `sink`; returns the number of dropped lines.
pub fn scan_value_lines(text: &str, ty: DataType, mut sink: impl FnMut(Value)) -> usize {
    scan(text, &[ty], Layout::WholeLine, &mut Values, |cells| {
        cells.iter_mut().for_each(|cell| sink(std::mem::take(cell)));
    })
}

/// [`scan`] into the sink that keeps every row, as wide as it was asked for.
fn collect(text: &str, types: &[DataType], layout: Layout) -> ParsedRows {
    let mut rows = Vec::new();
    let dropped_lines = scan(text, types, layout, &mut Values, |cells| {
        rows.push(cells.iter_mut().map(std::mem::take).collect());
    });
    ParsedRows {
        rows,
        dropped_lines,
    }
}

/// Parse a completion that should contain one scalar value per line.
pub fn parse_value_lines(text: &str, ty: DataType) -> ParsedRows {
    collect(text, &[ty], Layout::WholeLine)
}

/// Parse a completion that should contain pipe-separated rows with the given
/// column types (see [`scan_pipe_rows`]).
pub fn parse_pipe_rows(text: &str, types: &[DataType]) -> ParsedRows {
    collect(text, types, Layout::Pipes)
}

/// The page index of one answer for one list of column types (see the
/// module docs): the cells of every data line in order, one per type (one
/// text cell if there is none), and the count of lines dropped.
#[derive(Debug, Clone)]
struct PageIndex {
    /// The reader's own list, shared: building an index allocates only its
    /// cells.
    types: Arc<[DataType]>,
    cells: Vec<Cell>,
    dropped: usize,
}

impl PageIndex {
    /// Index `answer` read as pipe-separated rows of `types`, as
    /// [`scan_pipe_rows`] reads it. An answer with text past the reach of a
    /// `u32` offset is refused, never cut.
    fn build(answer: &str, types: &Arc<[DataType]>) -> Result<PageIndex> {
        let mut ranges = Ranges { answer, fits: true };
        // Room for a line's cells per line of the answer, allocated once:
        // most lines are data. Never more cells than the answer has bytes,
        // so an answer of blank lines reserves no more than its length.
        let lines = answer.bytes().filter(|&b| b == b'\n').count() + 1;
        let width = types.len().max(1);
        let mut cells = Vec::with_capacity(lines.saturating_mul(width).min(answer.len()));
        let dropped = scan(answer, types, Layout::Pipes, &mut ranges, |line| {
            cells.extend_from_slice(line);
        });
        if !ranges.fits {
            let bytes = answer.len();
            return Err(Error::llm(format!(
                "an answer of {bytes} bytes is too long to index"
            )));
        }
        Ok(PageIndex {
            types: Arc::clone(types),
            cells,
            dropped,
        })
    }

    /// Whether this index was built for `types` (the same list, or an equal
    /// one: `Arc`'s equality checks the address first).
    fn reads(&self, types: &Arc<[DataType]>) -> bool {
        self.types == *types
    }

    /// Cells per data line.
    fn width(&self) -> usize {
        self.types.len().max(1)
    }
}

/// An answer read as rows through a page index: the index the answer keeps
/// ([`crate::Answer::page`]) or one of its own ([`Page::read`]).
pub struct Page<'a> {
    answer: &'a str,
    index: Cow<'a, PageIndex>,
}

impl<'a> Page<'a> {
    /// Read `answer` as pipe-separated rows of `types`, into an index no
    /// one else keeps.
    pub fn read(answer: &'a str, types: &Arc<[DataType]>) -> Result<Page<'a>> {
        let index = Cow::Owned(PageIndex::build(answer, types)?);
        Ok(Page { answer, index })
    }

    /// The answer's data lines: the rows [`scan_pipe_rows`] hands its sink.
    pub fn lines(&self) -> usize {
        self.index.cells.len() / self.index.width()
    }

    /// Lines dropped as unusable.
    pub fn dropped_lines(&self) -> usize {
        self.index.dropped
    }

    /// Each data line, in order, as the values of its cells, one per type:
    /// a text value is the one allocation a cell costs.
    pub fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = Value> + '_> + '_ {
        let answer = self.answer;
        let lines = self.index.cells.chunks(self.index.width());
        lines.map(move |line| line.iter().map(move |cell| cell.value(answer)))
    }

    /// Read the first `take` data lines one at a time into `row` and hand it
    /// to `each`: cell `i` of a line is written to column `at[i]`, a text
    /// cell into the `String` that column already holds, and the columns
    /// outside `at` keep what they hold. So a page read this way allocates
    /// nothing once a row has held text as long as its own, where
    /// [`Page::rows`] allocates every text cell.
    pub fn decode_each(
        &self,
        take: usize,
        at: &[usize],
        row: &mut Row,
        mut each: impl FnMut(&Row) -> Result<()>,
    ) -> Result<()> {
        let answer = self.answer;
        for line in self.index.cells.chunks(self.index.width()).take(take) {
            let slots = row.values_mut();
            for (cell, &column) in line.iter().zip(at) {
                cell.decode_into(answer, &mut slots[column]);
            }
            each(row)?;
        }
        Ok(())
    }
}

/// A completion as the engine shares it: the response, and the page index
/// it was first read for. One allocation per answer, shared as
/// `Arc<Answer>` by the request table's entry, the followers' flight, the
/// [`crate::ClientCall`] that fetched it and the scan that reads it; the
/// index is built by the first [`Answer::page`] read and freed with the
/// answer.
#[derive(Debug)]
pub struct Answer {
    response: CompletionResponse,
    index: OnceLock<PageIndex>,
}

impl Answer {
    /// An answer not yet read.
    pub fn new(response: CompletionResponse) -> Self {
        Answer {
            response,
            index: OnceLock::new(),
        }
    }

    /// The response, without its index.
    pub fn into_response(self) -> CompletionResponse {
        self.response
    }

    /// Read this answer as pipe-separated rows of `types`. The first read
    /// builds the index and keeps it, so every later read with the same types
    /// reuses it; a read with other types gets an index of its own (as
    /// [`Page::read`]), which is not kept.
    pub fn page(&self, types: &Arc<[DataType]>) -> Result<Page<'_>> {
        let text = &self.response.text;
        let kept = match self.index.get() {
            Some(kept) => kept,
            // A reader racing this one may keep its index first: then this
            // one is dropped and theirs is read.
            None => {
                let built = PageIndex::build(text, types)?;
                self.index.get_or_init(|| built)
            }
        };
        if kept.reads(types) {
            Ok(Page {
                answer: text,
                index: Cow::Borrowed(kept),
            })
        } else {
            Page::read(text, types)
        }
    }
}

impl Deref for Answer {
    type Target = CompletionResponse;

    fn deref(&self) -> &CompletionResponse {
        &self.response
    }
}

/// An owned response moves into a new shared answer: what
/// `RequestTable::put` and `FlightGuard::publish` make of one.
impl From<CompletionResponse> for Arc<Answer> {
    fn from(response: CompletionResponse) -> Self {
        Arc::new(Answer::new(response))
    }
}

/// The three-valued answer of a yes/no prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YesNoAnswer {
    /// The model said yes.
    Yes,
    /// The model said no.
    No,
    /// The model hedged or answered something unusable.
    Unknown,
}

/// Parse a yes/no completion.
pub fn parse_yes_no(text: &str) -> YesNoAnswer {
    let text = text.trim();
    let is_any = |word: &str, of: &[&str]| of.iter().any(|w| word.eq_ignore_ascii_case(w));
    let first_len = text.bytes().take_while(u8::is_ascii_alphabetic).count();
    // ASCII letters were counted: `first_len` is a char boundary.
    let first_word = &text[..first_len];
    if is_any(first_word, &["yes", "y", "true"]) {
        YesNoAnswer::Yes
    } else if is_any(first_word, &["no", "n", "false"]) {
        YesNoAnswer::No
    } else if is_any(first_word, &["unknown", "unsure", "uncertain", "maybe"]) {
        YesNoAnswer::Unknown
    } else {
        // Fall back to whole-word search so "unknown" does not match "no".
        let words = text.split(|c: char| !c.is_ascii_alphabetic());
        let has_yes = words.clone().any(|w| is_any(w, &["yes"]));
        let has_no = words.clone().any(|w| is_any(w, &["no", "not"]));
        match (has_yes, has_no) {
            (true, false) => YesNoAnswer::Yes,
            (false, true) => YesNoAnswer::No,
            _ => YesNoAnswer::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lines_basic() {
        let parsed = parse_value_lines("France\nGermany\nJapan\n", DataType::Text);
        assert_eq!(parsed.rows.len(), 3);
        assert_eq!(parsed.dropped_lines, 0);
        assert_eq!(parsed.rows[0].get(0), &Value::Text("France".into()));
    }

    #[test]
    fn value_lines_with_bullets_and_chatter() {
        let text = "Here are the countries you asked for:\n1. France\n2. Germany\n- Japan\n";
        let parsed = parse_value_lines(text, DataType::Text);
        assert_eq!(parsed.rows.len(), 3);
    }

    #[test]
    fn value_lines_numeric_garbage_dropped() {
        let parsed = parse_value_lines("12\nabc\n15\n", DataType::Int);
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.dropped_lines, 1);
    }

    #[test]
    fn pipe_rows_basic() {
        let parsed = parse_pipe_rows(
            "France | Paris | 68000000\nJapan | Tokyo | 125000000\n",
            &[DataType::Text, DataType::Text, DataType::Int],
        );
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[1].get(2), &Value::Int(125000000));
    }

    #[test]
    fn pipe_rows_pad_and_truncate() {
        let parsed = parse_pipe_rows(
            "France | Paris\nJapan | Tokyo | 125 | extra\n",
            &[DataType::Text, DataType::Text, DataType::Int],
        );
        assert_eq!(parsed.rows.len(), 2);
        assert!(parsed.rows[0].get(2).is_null());
        assert_eq!(parsed.rows[1].arity(), 3);
    }

    #[test]
    fn pipe_rows_skip_header_and_separator() {
        let text = "name | capital | population\n--- | --- | ---\nFrance | Paris | 68000000\n";
        let parsed = parse_pipe_rows(text, &[DataType::Text, DataType::Text, DataType::Int]);
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].get(0), &Value::Text("France".into()));
    }

    #[test]
    fn pipe_rows_drop_unsplittable_lines() {
        let parsed = parse_pipe_rows(
            "I could not find that information\nFrance | Paris\n",
            &[DataType::Text, DataType::Text],
        );
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.dropped_lines, 1);
    }

    #[test]
    fn pipe_rows_single_column() {
        let parsed = parse_pipe_rows("France\nGermany\n", &[DataType::Text]);
        assert_eq!(parsed.rows.len(), 2);
    }

    #[test]
    fn pipe_rows_null_fields() {
        let parsed = parse_pipe_rows(
            "Peru | NULL | unknown\n",
            &[DataType::Text, DataType::Text, DataType::Int],
        );
        assert_eq!(parsed.rows.len(), 1);
        assert!(parsed.rows[0].get(1).is_null());
        assert!(parsed.rows[0].get(2).is_null());
    }

    #[test]
    fn all_null_rows_dropped() {
        let parsed = parse_pipe_rows("NULL | NULL\n", &[DataType::Text, DataType::Int]);
        assert_eq!(parsed.rows.len(), 0);
        assert_eq!(parsed.dropped_lines, 1);
    }

    #[test]
    fn a_sink_takes_what_it_keeps_and_the_scanner_counts_the_rest() {
        let text =
            "Sure, here you go:\nFrance | 68\nno separator here\nNULL | unknown\nJapan | 125\n";
        let mut names = Vec::new();
        let dropped = scan_pipe_rows(text, &[DataType::Text, DataType::Int], |cells| {
            assert_eq!(cells.len(), 2);
            // Take one cell, leave the other: the next line overwrites both.
            names.push(std::mem::take(&mut cells[0]));
        });
        assert_eq!(names, [Value::from("France"), Value::from("Japan")]);
        assert_eq!(dropped, 2);

        let mut keys = Vec::new();
        let dropped = scan_value_lines("1. Kenya\n- Peru\n\n* \n", DataType::Text, |key| {
            keys.push(key);
        });
        assert_eq!(keys, [Value::from("Kenya"), Value::from("Peru")]);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn a_key_list_may_say_null_for_a_text_key_but_not_for_a_number() {
        let parsed = parse_value_lines("Kenya\nunknown\n", DataType::Text);
        assert_eq!(parsed.rows.len(), 2);
        assert!(parsed.rows[1].get(0).is_null());
        assert_eq!(parsed.dropped_lines, 0);
        let parsed = parse_value_lines("12\nunknown\n", DataType::Int);
        assert_eq!((parsed.rows.len(), parsed.dropped_lines), (1, 1));
    }

    #[test]
    fn yes_no_parsing() {
        assert_eq!(parse_yes_no("yes"), YesNoAnswer::Yes);
        assert_eq!(parse_yes_no("Yes."), YesNoAnswer::Yes);
        assert_eq!(parse_yes_no(" NO "), YesNoAnswer::No);
        assert_eq!(parse_yes_no("unknown"), YesNoAnswer::Unknown);
        assert_eq!(
            parse_yes_no("I believe the answer is yes"),
            YesNoAnswer::Yes
        );
        assert_eq!(parse_yes_no("definitely not, no"), YesNoAnswer::No);
        assert_eq!(parse_yes_no(""), YesNoAnswer::Unknown);
        assert_eq!(parse_yes_no("TRUE"), YesNoAnswer::Yes);
        assert_eq!(parse_yes_no("Maybe, yes"), YesNoAnswer::Unknown);
        assert_eq!(parse_yes_no("It is NOT."), YesNoAnswer::No);
        assert_eq!(parse_yes_no("yes and no"), YesNoAnswer::Yes);
        assert_eq!(parse_yes_no("well: yes and no"), YesNoAnswer::Unknown);
        assert_eq!(parse_yes_no("é — yes"), YesNoAnswer::Yes);
    }

    /// `text` as a shared answer no one has read.
    fn answer(text: &str) -> Arc<Answer> {
        Arc::from(CompletionResponse {
            text: text.to_string(),
            prompt_tokens: 1,
            completion_tokens: 1,
            latency_ms: 0.0,
            cost_usd: 0.0,
        })
    }

    /// What a page reads: its rows, dropped lines and data lines.
    fn read(page: &Page<'_>) -> (Vec<Row>, usize, usize) {
        let rows = page.rows().map(|cells| Row::new(cells.collect())).collect();
        (rows, page.dropped_lines(), page.lines())
    }

    #[test]
    fn an_answer_keeps_the_index_it_was_first_read_for() {
        let text = "name | population\nFrance | 68\ngarbled\nPeru | 34.5\n";
        let shared = answer(text);
        let numbers: Arc<[DataType]> = Arc::new([DataType::Text, DataType::Int]);
        let first = shared.page(&numbers).unwrap();
        // A second read of the same answer for the same types — another
        // reader's list of them — reads the index the first one built and
        // kept: nothing is scanned again.
        let reader = Arc::clone(&shared);
        let same: Arc<[DataType]> = Arc::new([DataType::Text, DataType::Int]);
        let again = reader.page(&same).unwrap();
        let kept = shared.index.get().unwrap();
        assert!(std::ptr::eq(&*first.index, kept));
        assert!(std::ptr::eq(&*again.index, kept));
        let parsed = parse_pipe_rows(text, &numbers);
        let expected = (parsed.rows, parsed.dropped_lines, 2);
        assert_eq!(read(&first), expected);
        assert_eq!(read(&again), expected);
        // Other types read the answer for themselves, into an index that is
        // not kept: asked for no number, the first line is a row.
        let words: Arc<[DataType]> = Arc::new([DataType::Text, DataType::Text]);
        let other = shared.page(&words).unwrap();
        assert!(matches!(other.index, Cow::Owned(_)));
        let parsed = parse_pipe_rows(text, &words);
        assert_eq!(read(&other), (parsed.rows, parsed.dropped_lines, 3));
        assert!(std::ptr::eq(shared.index.get().unwrap(), kept));
        // A page of its own reads the same.
        assert_eq!(read(&Page::read(text, &words).unwrap()), read(&other));
    }

    #[test]
    fn code_fences_ignored() {
        let parsed = parse_pipe_rows(
            "```\nFrance | Paris\n```\n",
            &[DataType::Text, DataType::Text],
        );
        assert_eq!(parsed.rows.len(), 1);
    }
}
