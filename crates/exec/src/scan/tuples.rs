//! The per-tuple plans: the key enumeration, one lookup per row with missing
//! cells, and one filter check per candidate row.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use llmsql_llm::prompt::PromptTemplate;
use llmsql_llm::{parse_yes_no, scan_pipe_rows, scan_value_lines, YesNoAnswer};
use llmsql_types::{DataType, Result, Row, Value};

use super::{unasked, Accepted, Asks, KeptPrompt, PromptPlan, Reply, ScanSpec};

/// What every run of one per-tuple scan shares, derived once from the
/// scan's plan node and the configuration: the key enumeration's prompt with
/// its kept request key, and the condition a decomposed scan checks per
/// candidate. The lookups and the checks name keys that earlier answers
/// gave, so they are rendered per run.
pub(crate) struct TupleScan {
    /// The one `enumerate` prompt: over the pushed filter, or over every
    /// candidate key when the filter is checked per candidate.
    pub(super) enumerate: KeptPrompt,
    /// The pushed filter as prompt text, when it becomes the decomposed
    /// strategy's own operator.
    pub(super) condition: Option<String>,
}

impl TupleScan {
    /// The per-tuple scan of `spec` under `max_scan_rows`, whose pushed
    /// filter reads `filter` in a prompt. `decomposed`: the filter is checked
    /// per candidate, so the enumeration lists every key up to the scan cap.
    pub(super) fn new(
        spec: ScanSpec<'_>,
        filter: Option<String>,
        decomposed: bool,
        max_scan_rows: usize,
    ) -> Self {
        let (filter, condition) = match filter {
            Some(condition) if decomposed => (None, Some(condition)),
            filter => (filter, None),
        };
        let enumerated = if condition.is_some() {
            spec.candidates()
        } else {
            spec
        };
        let budget = enumerated.row_budget(max_scan_rows);
        TupleScan {
            enumerate: enumeration(enumerated, filter.as_deref(), budget),
            condition,
        }
    }
}

/// The prompt enumerating up to `budget` of `spec`'s keys, with `filter` in
/// it.
pub(super) fn enumeration(spec: ScanSpec<'_>, filter: Option<&str>, budget: usize) -> KeptPrompt {
    let template = PromptTemplate::enumerate(spec.table, filter, Some(spec.table_schema));
    KeptPrompt::new(template.render_page(budget, 0))
}

/// The key enumeration that opens the per-tuple strategies: one `enumerate`
/// prompt, answered by one row per key with every other column NULL.
pub(super) struct Enumerate<'a> {
    spec: ScanSpec<'a>,
    budget: usize,
    /// The prompt, until it is asked.
    prompt: Option<&'a KeptPrompt>,
    pub(super) rows: Vec<Row>,
}

impl<'a> Enumerate<'a> {
    /// The enumeration of up to `budget` of `spec`'s keys by `prompt`.
    pub(super) fn new(spec: ScanSpec<'a>, budget: usize, prompt: &'a KeptPrompt) -> Self {
        Enumerate {
            spec,
            budget,
            prompt: Some(prompt),
            rows: Vec::new(),
        }
    }
}

impl PromptPlan for Enumerate<'_> {
    const KIND: &'static str = "enumerate";

    fn next(&mut self, _cap: usize) -> Result<Option<Asks<'_>>> {
        // Issued even on a spent call budget: the keys then cost one call
        // and the lookups they would feed cost none.
        Ok(self.prompt.take().map(KeptPrompt::ask))
    }

    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted> {
        let schema = self.spec.table_schema;
        let key_idx = schema.key_column();
        let (budget, rows) = (self.budget, &mut self.rows);
        let dropped = scan_value_lines(reply.text, schema.columns[key_idx].data_type, |key| {
            if rows.len() < budget {
                let mut full = vec![Value::Null; schema.arity()];
                full[key_idx] = key;
                rows.push(Row::new(full));
            }
        });
        Ok(Accepted {
            dropped_lines: dropped as u64,
            ..Accepted::default()
        })
    }
}

/// The needed columns `row` has no value for.
pub(super) fn missing<'r>(needed: &'r [usize], row: &'r Row) -> impl Iterator<Item = usize> + 'r {
    needed
        .iter()
        .copied()
        .filter(move |&col| row.get(col).is_null())
}

/// Walk `source` rows in order and ask one `lookup` per row for the needed
/// cells it is missing; rows that pass the pushed filter locally are
/// delivered, up to `budget` of them. The per-tuple strategies feed it the
/// enumerated keys (the local re-check means the model's own filtering need
/// not be trusted), the hybrid scan the stored rows.
///
/// Planning never runs further ahead than the row budget has room for: the
/// rows delivered plus the rows planned but not yet final stay within
/// `budget`. A sequential scan stops issuing lookups once `budget` rows are
/// delivered, so a fill planned past that point would be a call a sequential
/// run never makes (a row filtered out makes room for a *later* one). Rows
/// that need no lookup — complete rows, key-only projections — are delivered
/// without a call.
///
/// A lookup's prompt varies with the row's key and with which columns the row
/// is missing. The key is what `render_key` writes; the rest is a
/// [`PromptTemplate`] per missing-column set, built the first time a row with
/// that set is planned: one set for enumerated keys (every needed column is
/// missing), as many as the stored rows' NULL patterns for a hybrid fill.
/// The plan hands the driver each lookup as its template and key.
pub(super) struct Lookups<'a> {
    spec: ScanSpec<'a>,
    /// The needed columns other than the key.
    needed: Vec<usize>,
    budget: usize,
    /// The rows come from the store: with the call budget spent they pass
    /// through unfilled, as in a sequential run, and fills are counted. An
    /// enumerated key without its lookup is no row at all.
    stored: bool,
    source: Vec<Row>,
    /// The first source row neither delivered nor filtered out yet.
    cursor: usize,
    /// The first source row not planned yet; the rows from `cursor` to here
    /// await a lookup in flight or queue behind one.
    planned: usize,
    /// The source rows with a lookup in flight, oldest first.
    in_flight: VecDeque<usize>,
    /// Scratch: the column types one answer is parsed against.
    types: Vec<DataType>,
    /// The lookup template of each missing-column set met so far.
    templates: HashMap<Vec<usize>, Rc<PromptTemplate>>,
    /// Scratch: the missing-column set of the row being planned.
    missing: Vec<usize>,
    pub(super) rows: Vec<Row>,
}

impl<'a> Lookups<'a> {
    /// The lookups that complete `source` — `stored` rows, or enumerated
    /// keys — and deliver up to `budget` of them.
    pub(super) fn new(spec: ScanSpec<'a>, source: Vec<Row>, stored: bool, budget: usize) -> Self {
        let mut needed = spec.needed_columns();
        needed.retain(|&col| col != spec.table_schema.key_column());
        Lookups {
            spec,
            needed,
            budget,
            stored,
            source,
            cursor: 0,
            planned: 0,
            in_flight: VecDeque::new(),
            types: Vec::new(),
            templates: HashMap::new(),
            missing: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The lookup template of a row missing the columns in `self.missing`.
    fn template_for_missing(&mut self) -> Rc<PromptTemplate> {
        let spec = self.spec;
        let template = match self.templates.get(self.missing.as_slice()) {
            Some(template) => template,
            None => {
                let columns = &spec.table_schema.columns;
                let names: Vec<&str> = self.missing.iter().map(|&c| &*columns[c].name).collect();
                let template = PromptTemplate::lookup(spec.table, &names, Some(spec.table_schema));
                self.templates
                    .entry(self.missing.clone())
                    .or_insert(Rc::new(template))
            }
        };
        Rc::clone(template)
    }

    /// Deliver the source rows ahead of the oldest lookup in flight: every
    /// one of them has all the answers it is going to get.
    fn deliver(&mut self) -> Result<()> {
        let upto = self.in_flight.front().copied().unwrap_or(self.planned);
        for slot in &mut self.source[self.cursor..upto] {
            let row = std::mem::replace(slot, Row::empty());
            if self.spec.passes(&row)? {
                self.rows.push(row);
            }
        }
        self.cursor = upto;
        Ok(())
    }
}

impl PromptPlan for Lookups<'_> {
    const KIND: &'static str = "lookup";
    const PACKS: bool = true;

    fn next(&mut self, cap: usize) -> Result<Option<Asks<'_>>> {
        if cap == 0 && !self.stored {
            return Ok(None);
        }
        // The templates of the lookups planned here, in order; their rows
        // are the last as many entries of `in_flight`.
        let mut templates = Vec::new();
        loop {
            let before = (self.planned, self.cursor);
            while self.planned < self.source.len()
                && self.rows.len() + (self.planned - self.cursor) < self.budget
            {
                self.missing.clear();
                self.missing
                    .extend(missing(&self.needed, &self.source[self.planned]));
                if cap > 0 && !self.missing.is_empty() {
                    if templates.len() == cap {
                        break;
                    }
                    templates.push(self.template_for_missing());
                    self.in_flight.push_back(self.planned);
                }
                self.planned += 1;
            }
            // Delivery can filter rows out, which makes room to plan on.
            self.deliver()?;
            if (self.planned, self.cursor) == before {
                break;
            }
        }
        if templates.is_empty() {
            return Ok(None);
        }
        // A row with a lookup in flight stays in `source` until its answer
        // is in, so each key is borrowed from its row.
        let rows = self
            .in_flight
            .range(self.in_flight.len() - templates.len()..);
        let keys = templates
            .into_iter()
            .zip(rows)
            .map(|(template, &row)| (template, self.spec.key_text(&self.source[row])))
            .collect();
        Ok(Some(Asks::Keys(keys)))
    }

    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted> {
        let at = self.in_flight.pop_front().ok_or_else(unasked)?;
        let row = &mut self.source[at];
        let columns = &self.spec.table_schema.columns;
        self.types.clear();
        self.types
            .extend(missing(&self.needed, row).map(|col| columns[col].data_type));
        // The first line that reads as a row answers for the missing cells,
        // in column order; a cell it leaves NULL stays missing.
        let mut answered = false;
        let mut filled = 0;
        let needed = &self.needed;
        let dropped = scan_pipe_rows(reply.text, &self.types, |cells| {
            if std::mem::replace(&mut answered, true) {
                return;
            }
            let mut cells = cells.iter_mut();
            for &col in needed {
                if !row.get(col).is_null() {
                    continue;
                }
                if let Some(cell) = cells.next().filter(|cell| !cell.is_null()) {
                    row.set(col, std::mem::take(cell));
                    filled += 1;
                }
            }
        });
        // Everything ahead of the next lookup in flight is now final.
        self.deliver()?;
        Ok(Accepted {
            done: false,
            dropped_lines: dropped as u64,
            cells_filled: if self.stored { filled } else { 0 },
        })
    }
}

/// The decomposed strategy's filter operator: one `filter_check` prompt per
/// candidate row, keeping the rows the model says yes to, up to `budget`.
/// No more checks are in flight than the row budget still has room for — the
/// rule [`Lookups`] follows, for the same reason. A check's prompt is the
/// plan's one template with the candidate's key rendered in; the plan hands
/// the driver that template and the key.
pub(super) struct FilterChecks<'a> {
    spec: ScanSpec<'a>,
    /// Everything a check's prompt says but the candidate's key — table,
    /// condition, the schema's description — rendered once.
    template: Rc<PromptTemplate>,
    budget: usize,
    /// The candidates not yet answered for; the first `in_flight` of them
    /// have a check in flight.
    candidates: std::vec::IntoIter<Row>,
    in_flight: usize,
    pub(super) kept: Vec<Row>,
}

impl<'a> FilterChecks<'a> {
    /// The checks of `condition` over the candidate `rows`, keeping up to
    /// `budget` of them.
    pub(super) fn new(spec: ScanSpec<'a>, condition: &str, budget: usize, rows: Vec<Row>) -> Self {
        let template = PromptTemplate::filter_check(spec.table, condition, Some(spec.table_schema));
        FilterChecks {
            spec,
            template: Rc::new(template),
            budget,
            candidates: rows.into_iter(),
            in_flight: 0,
            kept: Vec::new(),
        }
    }
}

impl PromptPlan for FilterChecks<'_> {
    const KIND: &'static str = "filter_check";
    const PACKS: bool = true;

    fn next(&mut self, cap: usize) -> Result<Option<Asks<'_>>> {
        let room = self.budget.saturating_sub(self.kept.len() + self.in_flight);
        let unasked = self.candidates.as_slice().iter().skip(self.in_flight);
        let checks: Vec<_> = unasked
            .take(cap.min(room))
            .map(|row| (Rc::clone(&self.template), self.spec.key_text(row)))
            .collect();
        self.in_flight += checks.len();
        Ok((!checks.is_empty()).then_some(Asks::Keys(checks)))
    }

    fn accept(&mut self, reply: Reply<'_>) -> Result<Accepted> {
        // Answers arrive in candidate order, one candidate each.
        let candidate = self.candidates.next();
        self.in_flight = self.in_flight.saturating_sub(1);
        if parse_yes_no(reply.text) == YesNoAnswer::Yes {
            self.kept.extend(candidate);
        }
        Ok(Accepted::default())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        field, gt_filter, lookup_prompt, lookups_in, numbered_rows, parts, replay,
        stored_with_nulls, world_rows,
    };
    use super::*;
    use llmsql_llm::prompt::TaskSpec;

    #[test]
    fn tuple_strategy_issues_lookup_per_row() {
        // One enumeration with the filter in its prompt, then one lookup
        // per key in key order. The model's own filtering is not trusted:
        // this one lists every key, and the local re-check keeps the three
        // rows that pass.
        let p = parts(Some(gt_filter(60)), None);
        let spec = p.spec();
        let filter = spec.prompt_filter().unwrap();
        let prompt = enumeration(spec, filter.as_deref(), usize::MAX);
        let mut keys = Enumerate::new(spec, usize::MAX, &prompt);
        let names = "France\nGermany\nJapan\nPeru\nKenya".to_string();
        let run = replay(&mut keys, 4, 4, usize::MAX, |_, _| names.clone());
        let enumerate = TaskSpec::Enumerate {
            table: "countries".into(),
            filter: filter.clone(),
            limit: usize::MAX,
            offset: 0,
        };
        assert_eq!(run.prompts, [enumerate.to_prompt(Some(&p.schema))]);
        assert_eq!(keys.rows.len(), 5);

        let mut lookups = Lookups::new(spec, keys.rows, false, usize::MAX);
        let run = replay(&mut lookups, 4, 4, usize::MAX, lookups_in(world_rows()));
        let asked: Vec<String> = world_rows()
            .iter()
            .map(|row| lookup_prompt(&row.get(0).to_display_string(), &[1, 2]))
            .collect();
        assert_eq!(run.prompts, asked);
        let kept: Vec<Row> = world_rows()
            .into_iter()
            .filter(|row| row.get(2).as_int().unwrap() > 60)
            .collect();
        assert_eq!(lookups.rows, kept);
    }

    #[test]
    fn decomposed_strategy_uses_filter_checks() {
        // One check per candidate, in candidate order; the rows the model
        // says yes to are kept.
        let p = parts(Some(gt_filter(60)), None);
        let spec = p.spec();
        let mut checks = FilterChecks::new(spec, "population > 60", usize::MAX, world_rows());
        let verdict = |_: usize, prompt: &str| {
            let row = world_rows()
                .into_iter()
                .find(|row| row.get(0).to_display_string() == field(prompt, "key"))
                .unwrap();
            if row.get(2).as_int().unwrap() > 60 {
                "yes"
            } else {
                "no"
            }
            .to_string()
        };
        let run = replay(&mut checks, 8, 4, usize::MAX, verdict);
        assert_eq!(run.prompts.len(), 5);
        for (prompt, row) in run.prompts.iter().zip(world_rows()) {
            let check = TaskSpec::FilterCheck {
                table: "countries".into(),
                key: row.get(0).to_display_string(),
                condition: "population > 60".into(),
            };
            assert_eq!(*prompt, check.to_prompt(Some(&p.schema)));
        }
        assert_eq!(checks.kept.len(), 3);
    }

    #[test]
    fn hybrid_scan_fills_nulls() {
        // Each stored row is asked for the cells it misses, and only those.
        let p = parts(None, None);
        let spec = p.spec();
        let mut fills = Lookups::new(spec, stored_with_nulls(), true, usize::MAX);
        let run = replay(&mut fills, 4, 1, usize::MAX, lookups_in(world_rows()));
        assert_eq!(
            run.prompts,
            [lookup_prompt("France", &[2]), lookup_prompt("Japan", &[1])]
        );
        assert_eq!(fills.rows.len(), 2);
        assert_eq!(fills.rows[0].get(2), &Value::Int(68));
        assert_eq!(fills.rows[1].get(1), &Value::Text("Asia".into()));
        assert_eq!(run.cells_filled, 2);
    }

    #[test]
    fn hybrid_scan_stops_filling_at_row_budget() {
        // Regression: a pushed LIMIT must stop fill lookups exactly where a
        // sequential row-at-a-time scan would — planning fills for rows past
        // the budget pays for calls that are never needed. Both stored rows
        // have a missing cell, but only the first is within the budget.
        let mut p = parts(None, None);
        p.pushed_limit = Some(1);
        let spec = p.spec();
        let budget = spec.row_budget(usize::MAX);
        for fanout in [1, 8] {
            for batch in [1, 4] {
                let mut fills = Lookups::new(spec, stored_with_nulls(), true, budget);
                let run = replay(
                    &mut fills,
                    fanout,
                    batch,
                    usize::MAX,
                    lookups_in(world_rows()),
                );
                assert_eq!(
                    run.prompts,
                    [lookup_prompt("France", &[2])],
                    "{fanout} x {batch}"
                );
                assert_eq!(fills.rows.len(), 1);
            }
        }
    }

    #[test]
    fn hybrid_scan_parallel_matches_sequential() {
        let p = parts(None, None);
        let spec = p.spec();
        let run = |fanout: usize, batch: usize| {
            let mut fills = Lookups::new(spec, stored_with_nulls(), true, usize::MAX);
            let run = replay(
                &mut fills,
                fanout,
                batch,
                usize::MAX,
                lookups_in(world_rows()),
            );
            (run.prompts, run.cells_filled, fills.rows)
        };
        let sequential = run(1, 1);
        for (fanout, batch) in [(4, 1), (4, 4)] {
            assert_eq!(run(fanout, batch), sequential, "{fanout} x {batch}");
        }
    }

    #[test]
    fn lookups_follow_the_enumerated_keys_duplicates_and_all() {
        // The model opens with chatter and names France twice; the row
        // budget of 4 keeps the first four keys as listed, and one request
        // of four lookups asks for them in that order.
        let mut p = parts(None, None);
        p.pushed_limit = Some(4);
        let spec = p.spec();
        let budget = spec.row_budget(usize::MAX);
        let filter = spec.prompt_filter().unwrap();
        let prompt = enumeration(spec, filter.as_deref(), budget);
        let mut keys = Enumerate::new(spec, budget, &prompt);
        let listed = "Here are the keys:\nFrance\nJapan\nFrance\nPeru\nKenya";
        let run = replay(&mut keys, 8, 4, usize::MAX, |_, _| listed.to_string());
        assert_eq!((run.prompts.len(), run.dropped_lines), (1, 0));
        let mut lookups = Lookups::new(spec, keys.rows, false, budget);
        let run = replay(&mut lookups, 8, 4, usize::MAX, lookups_in(world_rows()));
        let asked: Vec<String> = ["France", "Japan", "France", "Peru"]
            .iter()
            .map(|key| lookup_prompt(key, &[1, 2]))
            .collect();
        assert_eq!(run.prompts, asked);
        assert_eq!(run.planned_after, [0; 4], "one request");
        let names: Vec<_> = lookups.rows.iter().map(|row| spec.key_text(row)).collect();
        assert_eq!(names, ["France", "Japan", "France", "Peru"]);
        assert!(lookups.rows.iter().all(|row| !row.get(2).is_null()));
    }

    #[test]
    fn a_hybrid_fill_shares_one_template_per_null_pattern() {
        // Stored rows missing the region, the population, both, then
        // neither, twice over: six lookups in row order over three
        // templates, each lookup the one-off prompt of its row's missing
        // columns, and the complete rows need none.
        let patterns: [&[usize]; 4] = [&[1], &[2], &[1, 2], &[]];
        let stored: Vec<Row> = numbered_rows(8)
            .into_iter()
            .enumerate()
            .map(|(i, mut row)| {
                patterns[i % 4]
                    .iter()
                    .for_each(|&col| row.set(col, Value::Null));
                row
            })
            .collect();
        let p = parts(None, None);
        let spec = p.spec();
        let mut fills = Lookups::new(spec, stored.clone(), true, usize::MAX);
        let Some(Asks::Keys(lookups)) = fills.next(8).unwrap() else {
            panic!("no lookups planned");
        };
        let asked: Vec<String> = lookups.iter().map(|(t, key)| t.render_key(key)).collect();
        let expected: Vec<String> = (0..8)
            .filter(|i| i % 4 != 3)
            .map(|i| lookup_prompt(&spec.key_text(&stored[i]), patterns[i % 4]))
            .collect();
        assert_eq!(asked, expected);
        let templates: Vec<*const PromptTemplate> =
            lookups.iter().map(|(t, _)| Rc::as_ptr(t)).collect();
        assert_eq!(
            templates[..3],
            templates[3..],
            "a pattern met again reuses its template"
        );
        let mut distinct = templates.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn filter_checks_never_ask_past_the_rows_the_budget_has_room_for() {
        // A budget of 2 over five candidates: two checks go out; France is
        // kept and Germany is not, which makes room for one more, Japan;
        // kept too, the budget is met and Peru and Kenya are never asked.
        let mut p = parts(None, None);
        p.pushed_limit = Some(2);
        let spec = p.spec();
        let budget = spec.row_budget(usize::MAX);
        let mut checks = FilterChecks::new(spec, "population > 60", budget, world_rows());
        let verdict = |_: usize, prompt: &str| {
            if field(prompt, "key") == "Germany" {
                "no"
            } else {
                "yes"
            }
            .to_string()
        };
        let run = replay(&mut checks, 8, 4, usize::MAX, verdict);
        let keys: Vec<&str> = run.prompts.iter().map(|q| field(q, "key")).collect();
        assert_eq!(keys, ["France", "Germany", "Japan"]);
        assert_eq!(run.planned_after, [0, 0, 2]);
        assert_eq!(
            checks.kept,
            [world_rows()[0].clone(), world_rows()[2].clone()]
        );
    }

    #[test]
    fn only_the_key_enumeration_is_asked_on_a_spent_call_budget() {
        // The keys cost one call and the lookups they would feed cost none,
        // so no enumerated key becomes a row; stored rows pass unfilled.
        let p = parts(None, None);
        let spec = p.spec();
        let filter = spec.prompt_filter().unwrap();
        let prompt = enumeration(spec, filter.as_deref(), usize::MAX);
        let mut keys = Enumerate::new(spec, usize::MAX, &prompt);
        assert!(keys.next(0).unwrap().is_some());
        let mut lookups = Lookups::new(spec, world_rows(), false, usize::MAX);
        assert!(lookups.next(0).unwrap().is_none());
        assert!(lookups.rows.is_empty());
        let stored = vec![Row::new(vec!["France".into(), Value::Null, Value::Int(68)])];
        let mut fills = Lookups::new(spec, stored.clone(), true, usize::MAX);
        assert!(fills.next(0).unwrap().is_none());
        assert_eq!(fills.rows, stored);
    }
}
