//! The versioned on-disk format of the synthesis cache: the journal's compaction snapshot.
//!
//! A restarted deployment loads this file at startup ([`crate::Deployment::open_journal`]) and
//! skips cold-start synthesis entirely for every query it has served before. The format is a
//! deliberately simple line-oriented text file — the workspace carries no serde — with a version
//! header, so future layout changes can evolve it without ambiguity:
//!
//! ```text
//! anosy-synth-cache v1 domain=interval
//! entry kind=under members=-
//! layout x:0:400 y:0:400
//! pred ((abs((v0 - 200)) + abs((v1 - 200))) <= 100)
//! truthy 121..279,179..221
//! falsy 0..400,0..99
//! end
//! ```
//!
//! Predicates are persisted in their `Display` form and re-parsed with
//! [`anosy_logic::parse_pred`] (the printer and parser are exact inverses on the printable
//! fragment — property-tested in `anosy-logic`); domain elements use the
//! [`DomainCodec`](anosy_synth::DomainCodec) hooks. Entries whose predicate does not round-trip
//! (e.g. one using a printable-fragment escape hatch) are *skipped on save* rather than written
//! unreadably; [`save_entries`] reports both counts as a [`SaveOutcome`], and the stats
//! snapshot's `saves_skipped` counter propagates the skipped count so a lossy save is visible to
//! operators.
//!
//! Loading is all-or-nothing per file (a malformed line fails the load, and with it the journal
//! open, with [`ServeError::Format`]). Loaded entries are trusted — they were verified before
//! being saved — so a warm start performs no solver work at all unless recovery was asked to
//! re-verify them.

use crate::ServeError;
use anosy_core::SharedCacheEntry;
use anosy_logic::{parse_pred, SecretLayout};
use anosy_synth::{decode_indsets, encode_indsets, parse_approx_kind, DomainCodec};
use std::io::Write;
use std::path::Path;

/// Magic prefix of the cache file; the version is bumped on any incompatible format change.
const HEADER_PREFIX: &str = "anosy-synth-cache v1 domain=";

fn format_err(line: usize, reason: impl Into<String>) -> ServeError {
    ServeError::Format { line, reason: reason.into() }
}

/// Renders a layout as `name:lo:hi` tokens. Returns `None` when a field name would not survive
/// the encoding (whitespace or `:` in the name).
fn encode_layout(layout: &SecretLayout) -> Option<String> {
    let mut tokens = Vec::with_capacity(layout.arity());
    for field in layout.fields() {
        let name = field.name();
        if name.contains(':') || name.chars().any(char::is_whitespace) || name.is_empty() {
            return None;
        }
        tokens.push(format!("{name}:{}:{}", field.lo(), field.hi()));
    }
    Some(tokens.join(" "))
}

/// What a snapshot save ([`crate::Deployment::compact`]) accomplished: entries written, and
/// entries that could not be encoded faithfully and were skipped. A non-zero `skipped` means
/// the on-disk cache is lossy relative to the in-memory one — the count rides the stats
/// snapshot's `saves_skipped` so operators can see it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveOutcome {
    /// Entries written to the file.
    pub written: usize,
    /// Entries skipped because they do not survive the text encoding (see the module docs).
    pub skipped: usize,
}

/// Renders one entry as its six-line body (`entry`/`layout`/`pred`/`truthy`/`falsy`/`end`) —
/// the unit shared by the snapshot file and the journal's per-record framing. Returns `None`
/// when the entry does not survive the encoding faithfully: a layout whose field names embed
/// `:` or whitespace, or a predicate whose `Display` form does not re-parse to the identical
/// term (the cache key on load must intern to the same canonical term it had on save).
pub(crate) fn encode_entry<D: DomainCodec>(entry: &SharedCacheEntry<D>) -> Option<String> {
    let layout_line = encode_layout(&entry.layout)?;
    let pred_line = entry.pred.to_string();
    match parse_pred(&pred_line) {
        Ok(reparsed) if reparsed == entry.pred => {}
        _ => return None,
    }
    let (kind, truthy, falsy) = encode_indsets(&entry.indsets);
    let members = match entry.members {
        Some(m) => m.to_string(),
        None => "-".to_string(),
    };
    Some(format!(
        "entry kind={kind} members={members}\nlayout {layout_line}\npred {pred_line}\n\
         truthy {truthy}\nfalsy {falsy}\nend\n"
    ))
}

/// Parses one [`encode_entry`] body back into an entry. The inverse on everything
/// [`encode_entry`] emits; any deviation is an error string (the journal layer treats a
/// non-decoding record as corruption and truncates to the last good prefix).
pub(crate) fn parse_entry<D: DomainCodec>(body: &str) -> Result<SharedCacheEntry<D>, String> {
    let mut lines = body.lines();
    let head = lines.next().ok_or("empty entry body")?;
    let rest = head.strip_prefix("entry ").ok_or_else(|| format!("expected `entry`: {head}"))?;
    let mut kind = None;
    let mut members = None;
    for token in rest.split_whitespace() {
        if let Some(k) = token.strip_prefix("kind=") {
            kind = parse_approx_kind(k);
        } else if let Some(m) = token.strip_prefix("members=") {
            members = Some(if m == "-" {
                None
            } else {
                Some(m.parse().map_err(|_| "bad members count".to_string())?)
            });
        }
    }
    let kind = kind.ok_or("missing or bad kind")?;
    let members = members.ok_or("missing members")?;
    let mut field = |prefix: &str| -> Result<String, String> {
        let line = lines.next().ok_or_else(|| format!("truncated entry, wanted `{prefix}`"))?;
        line.strip_prefix(prefix)
            .map(str::to_string)
            .ok_or_else(|| format!("expected `{prefix}`, found `{line}`"))
    };
    let layout_text = field("layout ")?;
    let pred_text = field("pred ")?;
    let truthy_text = field("truthy ")?;
    let falsy_text = field("falsy ")?;
    let end_text = field("end")?;
    if !end_text.is_empty() || lines.next().is_some() {
        return Err("junk after `end`".to_string());
    }
    let layout = crate::wire::parse_layout(&layout_text)
        .ok_or(format!("malformed layout `{layout_text}`"))?;
    let pred = parse_pred(&pred_text).map_err(|e| format!("unparseable predicate: {e}"))?;
    let indsets = decode_indsets::<D>(kind, &truthy_text, &falsy_text, &layout)
        .ok_or("undecodable ind. sets")?;
    Ok(SharedCacheEntry { pred, layout, kind, members, indsets })
}

/// Writes the entries to `path`, atomically enough for a single writer (write to a temp file in
/// the same directory, then rename). Reports how many entries were written and how many could
/// not be encoded faithfully and were skipped (see the module docs above).
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failures.
pub fn save_entries<D: DomainCodec>(
    path: &Path,
    entries: &[SharedCacheEntry<D>],
) -> Result<SaveOutcome, ServeError> {
    let mut body = format!("{HEADER_PREFIX}{}\n", D::TAG);
    let mut outcome = SaveOutcome::default();
    for entry in entries {
        match encode_entry(entry) {
            Some(encoded) => {
                body.push_str(&encoded);
                outcome.written += 1;
            }
            None => outcome.skipped += 1,
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(body.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(outcome)
}

/// Reads a cache file back into entries.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on filesystem failures and [`ServeError::Format`] when the file's
/// version, domain tag or any entry does not decode.
pub fn load_entries<D: DomainCodec>(path: &Path) -> Result<Vec<SharedCacheEntry<D>>, ServeError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format_err(0, "empty cache file"))?;
    let domain = header
        .strip_prefix(HEADER_PREFIX)
        .ok_or_else(|| format_err(1, format!("bad header `{header}`")))?;
    if domain != D::TAG {
        return Err(format_err(
            1,
            format!("cache is for domain `{domain}`, deployment uses `{}`", D::TAG),
        ));
    }

    // Split the body into entry bodies at `end` lines, each tagged with its first line number;
    // blank lines between entries are skipped.
    let mut bodies: Vec<(usize, String)> = Vec::new();
    let mut open = false;
    for (lineno, line) in (2..).zip(lines) {
        if !open {
            if line.trim().is_empty() {
                continue;
            }
            bodies.push((lineno, String::new()));
        }
        let (_, body) = bodies.last_mut().expect("pushed above");
        body.push_str(line);
        body.push('\n');
        open = line != "end";
    }
    bodies
        .into_iter()
        .map(|(lineno, body)| parse_entry(&body).map_err(|reason| format_err(lineno, reason)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anosy_domains::{AInt, IntervalDomain, PowersetDomain};
    use anosy_logic::IntExpr;
    use anosy_synth::{ApproxKind, IndSets};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn entry(xo: i64) -> SharedCacheEntry<IntervalDomain> {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        SharedCacheEntry {
            pred,
            layout: layout(),
            kind: ApproxKind::Under,
            members: None,
            indsets: IndSets::new(
                ApproxKind::Under,
                IntervalDomain::from_intervals(vec![AInt::new(121, 279), AInt::new(179, 221)]),
                IntervalDomain::from_intervals(vec![AInt::new(0, 400), AInt::new(0, 99)]),
            ),
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("anosy-serve-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trips() {
        let path = tmp_path("round_trip.cache");
        let entries = vec![entry(200), entry(300)];
        assert_eq!(save_entries(&path, &entries).unwrap(), SaveOutcome { written: 2, skipped: 0 });
        let loaded = load_entries::<IntervalDomain>(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        for (a, b) in entries.iter().zip(&loaded) {
            assert_eq!(a.pred, b.pred);
            assert_eq!(a.layout, b.layout);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.members, b.members);
            assert_eq!(a.indsets, b.indsets);
        }
    }

    #[test]
    fn powerset_entries_round_trip_too() {
        let path = tmp_path("powerset.cache");
        let member = IntervalDomain::from_intervals(vec![AInt::new(0, 10), AInt::new(0, 10)]);
        let entries = vec![SharedCacheEntry {
            pred: IntExpr::var(0).le(10),
            layout: layout(),
            kind: ApproxKind::Over,
            members: Some(3),
            indsets: IndSets::new(
                ApproxKind::Over,
                PowersetDomain::from_interval(member.clone()),
                PowersetDomain::new(2, vec![member.clone()], vec![member]),
            ),
        }];
        assert_eq!(save_entries(&path, &entries).unwrap().written, 1);
        let loaded = load_entries::<PowersetDomain>(&path).unwrap();
        assert_eq!(loaded[0].members, Some(3));
        assert_eq!(loaded[0].indsets, entries[0].indsets);
    }

    #[test]
    fn wrong_domain_and_malformed_files_fail_cleanly() {
        let path = tmp_path("wrong_domain.cache");
        save_entries::<IntervalDomain>(&path, &[entry(200)]).unwrap();
        let err = load_entries::<PowersetDomain>(&path).unwrap_err();
        assert!(matches!(err, ServeError::Format { line: 1, .. }), "{err}");

        let garbled = tmp_path("garbled.cache");
        std::fs::write(&garbled, "anosy-synth-cache v1 domain=interval\nentry kind=sideways\n")
            .unwrap();
        assert!(load_entries::<IntervalDomain>(&garbled).is_err());

        let truncated = tmp_path("truncated.cache");
        std::fs::write(
            &truncated,
            "anosy-synth-cache v1 domain=interval\nentry kind=under members=-\nlayout x:0:4\n",
        )
        .unwrap();
        assert!(load_entries::<IntervalDomain>(&truncated).is_err());

        assert!(load_entries::<IntervalDomain>(&tmp_path("missing.cache")).is_err());
    }

    #[test]
    fn unfaithful_entries_are_skipped_on_save() {
        let path = tmp_path("skipped.cache");
        let mut bad = entry(200);
        bad.layout = SecretLayout::builder().field("has space", 0, 4).field("y", 0, 4).build();
        assert_eq!(
            save_entries(&path, &[bad, entry(300)]).unwrap(),
            SaveOutcome { written: 1, skipped: 1 }
        );
        assert_eq!(load_entries::<IntervalDomain>(&path).unwrap().len(), 1);
    }
}
