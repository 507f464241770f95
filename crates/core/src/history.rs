//! The disguise history log.
//!
//! Paper §4.2: "the tool keeps a persistent log of all disguises the
//! application applied, and re-applies disguises from the relevant log
//! interval to the revealed data". Like the prototype (§5: "Edna also
//! keeps a disguise history table"), the log lives in the application
//! database itself, in a reserved table.

use edna_relational::{Database, Value};

use crate::error::{Error, Result};

/// Name of the reserved history table.
pub const HISTORY_TABLE: &str = "_edna_disguise_history";

/// One recorded disguise application.
#[derive(Debug, Clone, PartialEq)]
pub struct DisguiseEvent {
    /// Monotonic application id (also the vault entry key).
    pub id: u64,
    /// Disguise name.
    pub name: String,
    /// Disguised user id (NULL for global disguises).
    pub user_id: Value,
    /// Logical time of application.
    pub applied_at: i64,
    /// Whether reveal functions were recorded.
    pub reversible: bool,
    /// Whether the application has been reverted.
    pub reverted: bool,
    /// Free-form note. Nothing writes it any more; older versions recorded
    /// why a vault write degraded the application to irreversible here,
    /// and the column stays so their history tables still load.
    pub note: Option<String>,
}

/// Handle to the history table in an application database.
#[derive(Clone)]
pub struct HistoryLog {
    db: Database,
}

impl HistoryLog {
    /// Opens (creating the table if needed) the history log in `db`.
    pub fn open(db: Database) -> Result<HistoryLog> {
        if !db.has_table(HISTORY_TABLE) {
            db.execute(&format!(
                "CREATE TABLE {HISTORY_TABLE} (
                    id INT PRIMARY KEY AUTO_INCREMENT,
                    name TEXT NOT NULL,
                    userId TEXT,
                    appliedAt INT NOT NULL,
                    reversible BOOL NOT NULL,
                    reverted BOOL NOT NULL DEFAULT FALSE,
                    note TEXT
                 )"
            ))?;
        }
        Ok(HistoryLog { db })
    }

    /// Records a new application; returns its id.
    pub fn record(
        &self,
        name: &str,
        user_id: &Value,
        applied_at: i64,
        reversible: bool,
    ) -> Result<u64> {
        let user_literal = if user_id.is_null() {
            Value::Null
        } else {
            Value::Text(user_id.to_sql_literal())
        };
        let id = self
            .db
            .insert_row(
                HISTORY_TABLE,
                &[
                    ("name", Value::Text(name.to_string())),
                    ("userId", user_literal),
                    ("appliedAt", Value::Int(applied_at)),
                    ("reversible", Value::Bool(reversible)),
                    ("reverted", Value::Bool(false)),
                ],
            )?
            .ok_or_else(|| {
                Error::Relational(edna_relational::Error::Eval(
                    "history table lost its AUTO_INCREMENT id".to_string(),
                ))
            })?;
        Ok(id as u64)
    }

    /// Marks application `id` reverted.
    pub fn mark_reverted(&self, id: u64) -> Result<()> {
        let n = self.db.execute(&format!(
            "UPDATE {HISTORY_TABLE} SET reverted = TRUE WHERE id = {id}"
        ))?;
        if n.affected == 0 {
            return Err(Error::NoSuchApplication(id));
        }
        Ok(())
    }

    /// The event with the given id.
    pub fn get(&self, id: u64) -> Result<DisguiseEvent> {
        self.events_where(&format!("id = {id}"))?
            .into_iter()
            .next()
            .ok_or(Error::NoSuchApplication(id))
    }

    /// All events, oldest first.
    pub fn events(&self) -> Result<Vec<DisguiseEvent>> {
        self.events_where("TRUE")
    }

    /// Non-reverted, reversible events strictly older than `id` (candidates
    /// for apply-time composition, §4.2).
    pub fn active_before(&self, id: u64) -> Result<Vec<DisguiseEvent>> {
        self.events_where(&format!(
            "id < {id} AND reverted = FALSE AND reversible = TRUE"
        ))
    }

    /// Non-reverted events strictly newer than `id` (the "relevant log
    /// interval" re-applied after a reveal, §4.2).
    pub fn active_after(&self, id: u64) -> Result<Vec<DisguiseEvent>> {
        self.events_where(&format!("id > {id} AND reverted = FALSE"))
    }

    /// The most recent non-reverted application of `name` for `user_id`.
    pub fn latest(&self, name: &str, user_id: &Value) -> Result<Option<DisguiseEvent>> {
        let user_match = if user_id.is_null() {
            "userId IS NULL".to_string()
        } else {
            format!(
                "userId = '{}'",
                user_id.to_sql_literal().replace('\'', "''")
            )
        };
        let mut events = self.events_where(&format!(
            "name = '{}' AND {user_match} AND reverted = FALSE",
            name.replace('\'', "''")
        ))?;
        Ok(events.pop())
    }

    fn events_where(&self, cond: &str) -> Result<Vec<DisguiseEvent>> {
        let r = self.db.execute(&format!(
            "SELECT id, name, userId, appliedAt, reversible, reverted, note \
             FROM {HISTORY_TABLE} WHERE {cond} ORDER BY id"
        ))?;
        r.rows
            .into_iter()
            .map(|row| {
                Ok(DisguiseEvent {
                    id: row[0].as_int()? as u64,
                    name: row[1].as_text()?.to_string(),
                    user_id: decode_user(&row[2])?,
                    applied_at: row[3].as_int()?,
                    reversible: row[4].as_bool()?,
                    reverted: row[5].as_bool()?,
                    note: match &row[6] {
                        Value::Null => None,
                        v => Some(v.as_text()?.to_string()),
                    },
                })
            })
            .collect()
    }
}

/// Decodes the stored SQL-literal rendering of a user id back to a Value.
fn decode_user(stored: &Value) -> Result<Value> {
    match stored {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => {
            let expr = edna_relational::parse_expr(s).map_err(Error::Relational)?;
            match expr {
                edna_relational::Expr::Literal(v) => Ok(v),
                edna_relational::Expr::Unary {
                    op: edna_relational::UnOp::Neg,
                    expr,
                } => match *expr {
                    edna_relational::Expr::Literal(Value::Int(i)) => Ok(Value::Int(-i)),
                    edna_relational::Expr::Literal(Value::Float(x)) => Ok(Value::Float(-x)),
                    _ => Err(Error::Relational(edna_relational::Error::Eval(format!(
                        "bad stored user id {s}"
                    )))),
                },
                _ => Err(Error::Relational(edna_relational::Error::Eval(format!(
                    "bad stored user id {s}"
                )))),
            }
        }
        other => Err(Error::Relational(edna_relational::Error::Eval(format!(
            "bad stored user id {other}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> HistoryLog {
        HistoryLog::open(Database::new()).unwrap()
    }

    #[test]
    fn record_and_fetch() {
        let log = log();
        let a = log.record("GDPR", &Value::Int(19), 100, true).unwrap();
        let b = log.record("ConfAnon", &Value::Null, 200, true).unwrap();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        let e = log.get(a).unwrap();
        assert_eq!(e.name, "GDPR");
        assert_eq!(e.user_id, Value::Int(19));
        assert!(!e.reverted);
        let global = log.get(b).unwrap();
        assert!(global.user_id.is_null());
    }

    #[test]
    fn intervals() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        let b = log.record("B", &Value::Null, 2, true).unwrap();
        let c = log.record("C", &Value::Int(2), 3, false).unwrap();
        // Before c: both a and b (reversible, unreverted).
        let before = log.active_before(c).unwrap();
        assert_eq!(before.iter().map(|e| e.id).collect::<Vec<_>>(), vec![a, b]);
        // After a: b and c.
        let after = log.active_after(a).unwrap();
        assert_eq!(after.iter().map(|e| e.id).collect::<Vec<_>>(), vec![b, c]);
        // Irreversible c is not a composition candidate.
        let before2 = log.active_before(99).unwrap();
        assert!(!before2.iter().any(|e| e.id == c));
    }

    #[test]
    fn revert_marking() {
        let log = log();
        let a = log.record("A", &Value::Int(1), 1, true).unwrap();
        log.mark_reverted(a).unwrap();
        assert!(log.get(a).unwrap().reverted);
        assert!(log.active_before(99).unwrap().is_empty());
        assert!(matches!(
            log.mark_reverted(42),
            Err(Error::NoSuchApplication(42))
        ));
    }

    #[test]
    fn latest_by_name_and_user() {
        let log = log();
        log.record("A", &Value::Int(1), 1, true).unwrap();
        let second = log.record("A", &Value::Int(1), 2, true).unwrap();
        log.record("A", &Value::Int(2), 3, true).unwrap();
        let e = log.latest("A", &Value::Int(1)).unwrap().unwrap();
        assert_eq!(e.id, second);
        assert!(log.latest("B", &Value::Int(1)).unwrap().is_none());
        // Text user ids round-trip through the literal encoding.
        log.record("A", &Value::Text("o'brien".into()), 4, true)
            .unwrap();
        let t = log
            .latest("A", &Value::Text("o'brien".into()))
            .unwrap()
            .unwrap();
        assert_eq!(t.user_id, Value::Text("o'brien".into()));
    }

    #[test]
    fn log_survives_in_database() {
        let db = Database::new();
        {
            let log = HistoryLog::open(db.clone()).unwrap();
            log.record("A", &Value::Int(1), 1, true).unwrap();
        }
        // Reopening sees the same data (the table is in the DB).
        let log2 = HistoryLog::open(db).unwrap();
        assert_eq!(log2.events().unwrap().len(), 1);
    }
}
