//! End-of-run correctness checks against the drained, reopened state.
//!
//! Each mismatch is one failure; none is filtered.
//! - the reopened database passes `Database::verify_integrity`;
//! - every acknowledged write is present;
//! - every user whose last acknowledged op was an apply has no attributed
//!   rows and cannot log in;
//! - every user whose last acknowledged op was a reveal has the same
//!   canonical projection as in the prepared instance.

use std::collections::BTreeMap;
use std::path::Path;

use edna_apps::hotcrp::workload as hotcrp_app;
use edna_core::Workspace;
use edna_relational::Database;

use crate::drive::Promises;
use crate::workload::{App, Workload};

/// The columns naming a user, per table. A user's canonical projection is,
/// for each, the ids of the rows naming them, plus their account row.
const HOTCRP_USER_COLUMNS: &[(&str, &str)] = &[
    ("Review", "contactId"),
    ("Review", "requestedBy"),
    ("PaperComment", "contactId"),
    ("ReviewRating", "contactId"),
    ("PaperReviewArchive", "contactId"),
    ("ReviewPreference", "contactId"),
    ("TopicInterest", "contactId"),
    ("Capability", "contactId"),
    ("ContactSession", "contactId"),
    ("PaperWatch", "contactId"),
    ("PaperConflict", "contactId"),
    ("ReviewRequest", "requestedBy"),
    ("PaperReviewRefused", "contactId"),
    ("PaperReviewRefused", "refusedBy"),
    ("Paper", "leadContactId"),
    ("Paper", "shepherdContactId"),
    ("Paper", "managerContactId"),
    ("ActionLog", "contactId"),
    ("ActionLog", "destContactId"),
    ("Formula", "createdBy"),
];

const LOBSTERS_USER_COLUMNS: &[(&str, &str)] = &[
    ("stories", "user_id"),
    ("comments", "user_id"),
    ("votes", "user_id"),
    ("messages", "author_user_id"),
    ("messages", "recipient_user_id"),
    ("hidden_stories", "user_id"),
    ("saved_stories", "user_id"),
    ("read_ribbons", "user_id"),
    ("invitations", "user_id"),
    ("hat_requests", "user_id"),
    ("hats", "user_id"),
    ("hats", "granted_by_user_id"),
    ("suggested_titles", "user_id"),
    ("suggested_taggings", "user_id"),
    ("moderations", "user_id"),
    ("moderations", "moderator_user_id"),
    ("mod_notes", "user_id"),
    ("mod_notes", "moderator_user_id"),
];

fn query(db: &Database, sql: &str) -> Result<Vec<String>, String> {
    let r = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    Ok(r.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect())
}

fn primary_key(db: &Database, table: &str) -> Result<String, String> {
    let schema = db.schema(table).map_err(|e| format!("{table}: {e}"))?;
    schema
        .primary_key
        .map(|i| schema.columns[i].name.clone())
        .ok_or_else(|| format!("{table} has no primary key"))
}

/// A user's canonical projection: their account row and, per naming
/// column, the ids of the rows that name them.
pub fn projection(db: &Database, app: App, user: i64) -> Result<Vec<String>, String> {
    let (account, columns) = match app {
        App::HotCrp => (
            format!("SELECT * FROM ContactInfo WHERE contactId = {user}"),
            HOTCRP_USER_COLUMNS,
        ),
        App::Lobsters => (
            format!("SELECT * FROM users WHERE id = {user}"),
            LOBSTERS_USER_COLUMNS,
        ),
    };
    let mut out = query(db, &account)?;
    for (table, col) in columns {
        let pk = primary_key(db, table)?;
        let ids = query(
            db,
            &format!("SELECT {pk} FROM {table} WHERE {col} = {user} ORDER BY {pk}"),
        )?;
        out.push(format!("{table}.{col}: {}", ids.join(",")));
    }
    Ok(out)
}

fn count(db: &Database, sql: &str) -> Result<i64, String> {
    db.execute(sql)
        .and_then(|r| r.scalar()?.as_int())
        .map_err(|e| format!("{sql}: {e}"))
}

/// Why `user` is not fully disguised, if they are not.
fn not_disguised(db: &Database, app: App, user: i64) -> Result<Option<String>, String> {
    Ok(match app {
        App::HotCrp => {
            let reviews = hotcrp_app::review_count_for_user(db, user).map_err(|e| e.to_string())?;
            let login = hotcrp_app::can_log_in(db, user).map_err(|e| e.to_string())?;
            (reviews != 0 || login)
                .then(|| format!("user {user}: {reviews} attributed reviews, can log in: {login}"))
        }
        App::Lobsters => {
            let stories = count(
                db,
                &format!("SELECT COUNT(*) FROM stories WHERE user_id = {user}"),
            )?;
            let comments = count(
                db,
                &format!("SELECT COUNT(*) FROM comments WHERE user_id = {user}"),
            )?;
            let account = count(db, &format!("SELECT COUNT(*) FROM users WHERE id = {user}"))?;
            (stories + comments + account != 0).then(|| {
                format!(
                    "user {user}: {stories} stories, {comments} comments, {account} account rows"
                )
            })
        }
    })
}

/// The outcome of the end-of-run checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks made.
    pub checked: usize,
    /// Failures, one per mismatch.
    pub failures: Vec<String>,
}

/// Reopens the drained workspace at `state` and checks every promise
/// against it; `prepared` is the snapshot the run started from.
pub fn verify(state: &Path, workload: Workload, prepared: &Path, promises: &Promises) -> Verdict {
    let mut v = Verdict::default();
    let app = workload.app();
    // Expected projections first, so the prepared instance and the final
    // state are never in memory together.
    let expected: BTreeMap<i64, Result<Vec<String>, String>> = match Database::load(prepared) {
        Ok(db) => promises
            .revealed
            .iter()
            .map(|&u| (u, projection(&db, app, u)))
            .collect(),
        Err(e) => {
            v.checked += 1;
            v.failures
                .push(format!("loading the prepared instance: {e}"));
            return v;
        }
    };
    let ws = match Workspace::open(state, workload.passphrase()) {
        Ok(ws) => ws,
        Err(e) => {
            v.checked += 1;
            v.failures.push(format!("reopen: {e}"));
            return v;
        }
    };
    v.checked += 1;
    v.failures.extend(
        ws.db
            .verify_integrity()
            .into_iter()
            .map(|p| format!("integrity: {p}")),
    );
    let mut note = |outcome: Result<Option<String>, String>| {
        v.checked += 1;
        match outcome {
            Ok(None) => {}
            Ok(Some(f)) | Err(f) => v.failures.push(f),
        }
    };
    for (key, sql) in &promises.writes {
        note(query(&ws.db, sql).map(|rows| {
            (rows.len() != 1).then(|| format!("write {key}: {} rows for {sql}", rows.len()))
        }));
    }
    for &u in &promises.disguised {
        note(not_disguised(&ws.db, app, u));
    }
    for &u in &promises.revealed {
        note(projection(&ws.db, app, u).and_then(|now| {
            let before = expected[&u].clone()?;
            Ok((now != before)
                .then(|| format!("reveal of {u} did not restore: {before:?} became {now:?}")))
        }));
    }
    v
}
