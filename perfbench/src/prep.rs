//! Preparing a workload's instance once, and copying it fresh for each run.
//!
//! Preparation generates the application's data into a plain in-memory
//! `Database` (no WAL), saves it, opens it as a `Workspace` and registers
//! the disguises, all outside any timed region. Generating straight into
//! an opened workspace pays a WAL fsync per generated row: an earlier
//! measurement on a 2-core host put Lobsters at 10k users at 31.4 s and
//! 192,627 fsyncs that way, against 1.5 s in memory (see `NOTES.md`).

use std::path::{Path, PathBuf};

use edna_apps::hotcrp::{self, generate::HotCrpConfig};
use edna_apps::lobsters::{self, generate::LobstersConfig};
use edna_core::Workspace;

use crate::workload::{App, Ids, Workload};

/// File name of the workspace snapshot inside a run directory; its
/// sidecars (`state.wal`, `state.vault/`, ...) sit beside it.
pub const STATE: &str = "state";

/// A prepared instance: a directory holding a saved workspace.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The directory holding `state` and its sidecars.
    pub dir: PathBuf,
    /// The generated principals.
    pub ids: Ids,
}

fn io(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Returns the prepared instance of `workload` under `work`, preparing
/// it first if no earlier run did.
///
/// The instance is the application generator's own fixed-seed instance
/// (the paper's §6 HotCRP, Lobsters at 10k users); the run's seed varies
/// the request stream only, so run-to-run spread does not mix two sources.
pub fn prepare(work: &Path, workload: Workload) -> Result<Prepared, String> {
    let root = work.join("prepared");
    let dir = root.join(workload.name());
    let ids_path = dir.join("ids.txt");
    if let Ok(text) = std::fs::read_to_string(&ids_path) {
        return Ok(Prepared {
            dir,
            ids: Ids::decode(&text)?,
        });
    }
    std::fs::create_dir_all(&root).map_err(|e| io("cannot create", &root, e))?;
    let tmp = root.join(format!("{}.tmp", workload.name()));
    if tmp.exists() {
        std::fs::remove_dir_all(&tmp).map_err(|e| io("cannot clear", &tmp, e))?;
    }
    std::fs::create_dir_all(&tmp).map_err(|e| io("cannot create", &tmp, e))?;
    let ids = build(&tmp.join(STATE), workload)?;
    std::fs::write(tmp.join("ids.txt"), ids.encode()).map_err(|e| io("cannot write", &tmp, e))?;
    std::fs::rename(&tmp, &dir).map_err(|e| io("cannot publish", &dir, e))?;
    Ok(Prepared { dir, ids })
}

fn build(state: &Path, workload: Workload) -> Result<Ids, String> {
    let err = |e: &dyn std::fmt::Display| format!("preparing {}: {e}", workload.name());
    let ids = match workload.app() {
        App::HotCrp => {
            let db = hotcrp::create_db().map_err(|e| err(&e))?;
            let inst =
                hotcrp::generate::generate(&db, &HotCrpConfig::paper()).map_err(|e| err(&e))?;
            db.save(state).map_err(|e| err(&e))?;
            Ids {
                heavy: inst.pc_contact_ids,
                light: inst.author_contact_ids,
                items: inst.paper_ids,
                rows: inst.review_ids,
            }
        }
        App::Lobsters => {
            let db = lobsters::create_db().map_err(|e| err(&e))?;
            let inst = lobsters::generate::generate(&db, &LobstersConfig::sized(10_000))
                .map_err(|e| err(&e))?;
            db.save(state).map_err(|e| err(&e))?;
            let roots: std::collections::BTreeSet<i64> = db
                .execute("SELECT id FROM users WHERE invited_by_user_id IS NULL")
                .map_err(|e| err(&e))?
                .rows
                .iter()
                .filter_map(|r| r[0].as_int().ok())
                .collect();
            let (heavy, light) = inst.user_ids.iter().partition(|u| roots.contains(u));
            Ids {
                heavy,
                light,
                items: inst.story_ids,
                rows: Vec::new(),
            }
        }
    };
    let ws = Workspace::open(state, workload.passphrase()).map_err(|e| err(&e))?;
    let dsls: &[&str] = match workload.app() {
        App::HotCrp => &[
            hotcrp::GDPR_DSL,
            hotcrp::GDPR_PLUS_DSL,
            hotcrp::CONFANON_DSL,
        ],
        App::Lobsters => &[lobsters::GDPR_DSL],
    };
    for dsl in dsls {
        ws.register_spec(dsl).map_err(|e| err(&e))?;
    }
    if workload == Workload::ConfAnonCompose {
        ws.edna
            .apply("HotCRP-ConfAnon", None)
            .map_err(|e| err(&e))?;
        ws.save().map_err(|e| err(&e))?;
    }
    Ok(ids)
}

/// Copies the prepared workspace into a fresh `dest` directory and
/// returns the path of its snapshot.
pub fn fresh_copy(prepared: &Prepared, dest: &Path) -> Result<PathBuf, String> {
    if dest.exists() {
        std::fs::remove_dir_all(dest).map_err(|e| io("cannot clear", dest, e))?;
    }
    copy_tree(&prepared.dir, dest, true)?;
    Ok(dest.join(STATE))
}

fn copy_tree(from: &Path, to: &Path, top: bool) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| io("cannot create", to, e))?;
    for entry in std::fs::read_dir(from).map_err(|e| io("cannot list", from, e))? {
        let entry = entry.map_err(|e| io("cannot list", from, e))?;
        let name = entry.file_name();
        let name_s = name.to_string_lossy();
        // Only the workspace's own files; never its lock.
        if top && (!name_s.starts_with(STATE) || name_s.ends_with(".lock")) {
            continue;
        }
        let src = entry.path();
        let dst = to.join(&name);
        if src.is_dir() {
            copy_tree(&src, &dst, false)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| io("cannot copy", &src, e))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir` (0 if it is missing).
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The vault directory (`<state>.vault/`: both tiers and the journal).
pub fn vault_dir(state: &Path) -> PathBuf {
    edna_core::workspace::sidecar(state, ".vault")
}
