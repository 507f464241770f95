//! Scenario tests for the disguising tool: application, reversal,
//! composition, assertions, expiry, and policies.

use edna_core::spec::{DisguiseSpecBuilder, Generator, Modifier};
use edna_core::{ApplyOptions, Disguiser, Error};
use edna_relational::{Database, Value};
use edna_vault::{FaultPlan, FaultyStore, MemoryStore, TieredVault, Vault, VaultTier};

/// A small forum-like schema: users, stories, comments (comments cascade
/// with their story).
fn forum_db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, username TEXT NOT NULL, \
         email TEXT, karma INT DEFAULT 0, disabled BOOL NOT NULL DEFAULT FALSE, \
         last_login INT DEFAULT 0);
         CREATE TABLE stories (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
         title TEXT, created_at INT DEFAULT 0, \
         FOREIGN KEY (user_id) REFERENCES users(id));
         CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
         story_id INT NOT NULL, body TEXT, created_at INT DEFAULT 0, \
         FOREIGN KEY (user_id) REFERENCES users(id), \
         FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE);
         CREATE INDEX comments_by_user ON comments (user_id);
         CREATE INDEX stories_by_user ON stories (user_id);",
    )
    .unwrap();
    // Two users; bea (1) has a story and two comments, axolotl (2) one comment.
    db.execute("INSERT INTO users (username, email) VALUES ('bea', 'bea@uni.edu')")
        .unwrap();
    db.execute("INSERT INTO users (username, email) VALUES ('axolotl', 'axo@zoo.org')")
        .unwrap();
    db.execute("INSERT INTO stories (user_id, title) VALUES (1, 'privacy heroes')")
        .unwrap();
    db.execute(
        "INSERT INTO comments (user_id, story_id, body) VALUES \
         (1, 1, 'first!'), (1, 1, 'more thoughts'), (2, 1, 'nice story')",
    )
    .unwrap();
    db
}

/// GDPR-style scrub: decorrelate contributions, delete the account.
fn scrub_spec() -> edna_core::DisguiseSpec {
    DisguiseSpecBuilder::new("Scrub")
        .user_scoped()
        .decorrelate("stories", Some("user_id = $UID"), "user_id", "users")
        .decorrelate("comments", Some("user_id = $UID"), "user_id", "users")
        .remove("users", Some("id = $UID"))
        .placeholder("users", "username", Generator::Random)
        .placeholder("users", "email", Generator::Default(Value::Null))
        .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
        .assert_empty("stories", "user_id = $UID", "no stories attributed to user")
        .assert_empty(
            "comments",
            "user_id = $UID",
            "no comments attributed to user",
        )
        .build()
        .unwrap()
}

fn disguiser(db: &Database) -> Disguiser {
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();
    edna
}

#[test]
fn scrub_decorrelates_and_removes() {
    let db = forum_db();
    let edna = disguiser(&db);
    let report = edna.apply("Scrub", Some(&Value::Int(1))).unwrap();

    assert_eq!(report.rows_removed, 1, "only the account row is removed");
    assert_eq!(report.rows_decorrelated, 3, "one story + two comments");
    assert_eq!(
        report.placeholders_created, 3,
        "one placeholder per row (Fig. 2)"
    );

    // Bea is gone; her contributions remain but point at distinct,
    // disabled placeholders.
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM users WHERE id = 1")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(0)
    );
    assert_eq!(db.row_count("stories").unwrap(), 1);
    assert_eq!(db.row_count("comments").unwrap(), 3);
    let owners = db
        .execute("SELECT DISTINCT user_id FROM comments WHERE body != 'nice story'")
        .unwrap()
        .rows;
    assert_eq!(owners.len(), 2, "each comment got its own placeholder");
    let placeholders = db
        .execute("SELECT disabled, email FROM users WHERE id != 2")
        .unwrap()
        .rows;
    assert_eq!(placeholders.len(), 3);
    for row in placeholders {
        assert_eq!(row[0], Value::Bool(true), "placeholders are disabled");
        assert_eq!(row[1], Value::Null, "placeholders have no email");
    }
    // Axolotl untouched.
    assert_eq!(
        db.execute("SELECT user_id FROM comments WHERE body = 'nice story'")
            .unwrap()
            .rows[0][0],
        Value::Int(2)
    );
}

#[test]
fn reveal_round_trips_exactly() {
    let db = forum_db();
    let edna = disguiser(&db);
    let before = db.dump();
    let report = edna.apply("Scrub", Some(&Value::Int(1))).unwrap();
    assert_ne!(db.dump(), before, "the disguise changed the database");

    let reveal = edna.reveal(report.disguise_id).unwrap();
    assert_eq!(reveal.rows_reinserted, 1);
    assert_eq!(reveal.rows_restored, 3);
    assert_eq!(reveal.placeholders_removed, 3);

    // Everything is back, except the history table grew (logical state of
    // application tables must match exactly).
    let mut after = db.dump();
    let mut expected = before.clone();
    after.remove(edna_core::HISTORY_TABLE);
    expected.remove(edna_core::HISTORY_TABLE);
    assert_eq!(after, expected);
    // History records the reversal.
    assert!(edna.history().get(report.disguise_id).unwrap().reverted);
    // Double reveal fails.
    assert!(matches!(
        edna.reveal(report.disguise_id),
        Err(Error::AlreadyReverted(_))
    ));
}

#[test]
fn remove_records_cascaded_children() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    // Deleting a story cascades to its comments; reveal must restore both.
    edna.register(
        DisguiseSpecBuilder::new("DropStories")
            .user_scoped()
            .remove("stories", Some("user_id = $UID"))
            .build()
            .unwrap(),
    )
    .unwrap();
    let report = edna.apply("DropStories", Some(&Value::Int(1))).unwrap();
    assert_eq!(report.rows_removed, 4, "1 story + 3 cascaded comments");
    assert_eq!(db.row_count("comments").unwrap(), 0);

    let reveal = edna.reveal(report.disguise_id).unwrap();
    assert_eq!(reveal.rows_reinserted, 4);
    assert_eq!(db.row_count("comments").unwrap(), 3);
    assert_eq!(db.row_count("stories").unwrap(), 1);
}

#[test]
fn modify_and_reveal_restores_values() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("RedactComments")
            .user_scoped()
            .modify("comments", Some("user_id = $UID"), "body", Modifier::Redact)
            .build()
            .unwrap(),
    )
    .unwrap();
    let report = edna.apply("RedactComments", Some(&Value::Int(1))).unwrap();
    assert_eq!(report.rows_modified, 2);
    let bodies = db
        .execute("SELECT body FROM comments WHERE user_id = 1")
        .unwrap()
        .rows;
    assert!(bodies
        .iter()
        .all(|r| r[0] == Value::Text("[deleted]".into())));

    edna.reveal(report.disguise_id).unwrap();
    let bodies = db
        .execute("SELECT body FROM comments WHERE user_id = 1 ORDER BY id")
        .unwrap()
        .rows;
    assert_eq!(bodies[0][0], Value::Text("first!".into()));
    assert_eq!(bodies[1][0], Value::Text("more thoughts".into()));
}

#[test]
fn reveal_respects_later_disguises() {
    // The paper's §4.2 example: reversal of a user disguise must not
    // reintroduce data a later global anonymization transformed.
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("RedactMine")
            .user_scoped()
            .modify("comments", Some("user_id = $UID"), "body", Modifier::Redact)
            .build()
            .unwrap(),
    )
    .unwrap();
    edna.register(
        DisguiseSpecBuilder::new("SiteWideRedact")
            .modify(
                "comments",
                None,
                "body",
                Modifier::Fixed(Value::Text("*".into())),
            )
            .build()
            .unwrap(),
    )
    .unwrap();

    // Bea redacts her comments, then the site redacts everything.
    let mine = edna.apply("RedactMine", Some(&Value::Int(1))).unwrap();
    edna.apply("SiteWideRedact", None).unwrap();

    // Bea reveals her redaction. Her original bodies must NOT reappear:
    // the later SiteWideRedact is re-applied to the revealed rows.
    let reveal = edna.reveal(mine.disguise_id).unwrap();
    assert_eq!(reveal.reapplied.len(), 1);
    assert_eq!(reveal.reapplied[0].1, "SiteWideRedact");
    let bodies = db.execute("SELECT body FROM comments").unwrap().rows;
    assert!(
        bodies.iter().all(|r| r[0] == Value::Text("*".into())),
        "revealed rows must still respect the later disguise, got {bodies:?}"
    );
}

#[test]
fn composition_finds_rows_a_prior_disguise_hid() {
    // Apply a global decorrelation first (ConfAnon-style), then a
    // user-scoped scrub. The scrub's predicates can't see Bea's rows
    // anymore; composition must consult the vault.
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();
    edna.register(
        DisguiseSpecBuilder::new("AnonAll")
            .decorrelate("comments", None, "user_id", "users")
            .placeholder("users", "username", Generator::Random)
            .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
            .build()
            .unwrap(),
    )
    .unwrap();

    edna.apply("AnonAll", None).unwrap();
    // All comments now point at placeholders.
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM comments WHERE user_id = 1")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(0)
    );

    // Naive composition (no optimization): recorrelate, scrub, redo.
    let opts = ApplyOptions {
        compose: true,
        optimize: false,
        use_transaction: true,
        ..ApplyOptions::default()
    };
    let report = edna
        .apply_with_options("Scrub", Some(&Value::Int(1)), opts)
        .unwrap();
    assert_eq!(
        report.rows_recorrelated, 2,
        "bea's two comments came back briefly"
    );
    assert_eq!(report.rows_removed, 1, "account removed");
    // Assertions in the spec guarantee no rows are attributed to Bea.
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM comments WHERE user_id = 1")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(0)
    );
}

#[test]
fn optimized_composition_skips_redundant_decorrelation() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();
    edna.register(
        DisguiseSpecBuilder::new("AnonAll")
            .decorrelate("comments", None, "user_id", "users")
            .decorrelate("stories", None, "user_id", "users")
            .placeholder("users", "username", Generator::Random)
            .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
            .build()
            .unwrap(),
    )
    .unwrap();
    edna.apply("AnonAll", None).unwrap();

    let naive = ApplyOptions {
        compose: true,
        optimize: false,
        use_transaction: true,
        ..ApplyOptions::default()
    };
    let optimized = ApplyOptions {
        compose: true,
        optimize: true,
        use_transaction: true,
        ..ApplyOptions::default()
    };

    // Run the optimized variant (on a separate identical setup, run naive
    // to compare statement counts).
    let report_opt = edna
        .apply_with_options("Scrub", Some(&Value::Int(1)), optimized)
        .unwrap();
    assert!(
        report_opt.skipped_redundant > 0,
        "optimization must kick in"
    );
    assert_eq!(
        report_opt.rows_recorrelated, 0,
        "nothing to recorrelate when optimized"
    );

    // Fresh environment for the naive run.
    let db2 = forum_db();
    let edna2 = Disguiser::new(db2.clone());
    edna2.register(scrub_spec()).unwrap();
    edna2
        .register(
            DisguiseSpecBuilder::new("AnonAll")
                .decorrelate("comments", None, "user_id", "users")
                .decorrelate("stories", None, "user_id", "users")
                .placeholder("users", "username", Generator::Random)
                .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
                .build()
                .unwrap(),
        )
        .unwrap();
    edna2.apply("AnonAll", None).unwrap();
    let report_naive = edna2
        .apply_with_options("Scrub", Some(&Value::Int(1)), naive)
        .unwrap();
    assert!(report_naive.rows_recorrelated > 0);
    assert!(
        report_opt.stats.statements < report_naive.stats.statements,
        "optimized path must issue fewer statements ({} vs {})",
        report_opt.stats.statements,
        report_naive.stats.statements
    );

    // Both end states satisfy the privacy goal.
    for d in [&db, &db2] {
        assert_eq!(
            d.execute("SELECT COUNT(*) FROM comments WHERE user_id = 1")
                .unwrap()
                .scalar()
                .unwrap(),
            &Value::Int(0)
        );
    }
}

#[test]
fn assertion_failure_rolls_back_and_retry_mechanism_works() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();
    edna.register(
        DisguiseSpecBuilder::new("AnonAll")
            .decorrelate("comments", None, "user_id", "users")
            .placeholder("users", "username", Generator::Random)
            .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
            .build()
            .unwrap(),
    )
    .unwrap();
    edna.apply("AnonAll", None).unwrap();

    // With composition UNAVAILABLE the scrub can still satisfy its
    // assertions here (prior disguise already hid the rows), so force a
    // genuinely failing assertion instead: an impossible end state.
    edna.register(
        DisguiseSpecBuilder::new("Impossible")
            .user_scoped()
            .decorrelate("stories", Some("user_id = $UID"), "user_id", "users")
            .decorrelate("comments", Some("user_id = $UID"), "user_id", "users")
            .remove("users", Some("id = $UID"))
            .placeholder("users", "username", Generator::Random)
            .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
            .assert_empty("comments", "story_id = 1", "nothing references story 1")
            .build()
            .unwrap(),
    )
    .unwrap();
    let before = db.dump();
    let err = edna.apply("Impossible", Some(&Value::Int(2))).unwrap_err();
    assert!(matches!(err, Error::AssertionFailed { .. }), "got {err}");
    assert_eq!(db.dump(), before, "failed disguise must leave no trace");
}

#[test]
fn irreversible_disguise_records_nothing() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("HardDelete")
            .user_scoped()
            .irreversible()
            .remove("comments", Some("user_id = $UID"))
            .build()
            .unwrap(),
    )
    .unwrap();
    let report = edna.apply("HardDelete", Some(&Value::Int(2))).unwrap();
    assert_eq!(report.rows_removed, 1);
    assert_eq!(edna.vaults().entries_for(&Value::Int(2)).unwrap().len(), 0);
    assert!(matches!(
        edna.reveal(report.disguise_id),
        Err(Error::NotReversible { .. })
    ));
}

#[test]
fn expired_vault_entries_make_disguise_irreversible() {
    let db = forum_db();
    db.set_now(1000);
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("Expiring")
            .user_scoped()
            .expires_after(500)
            .modify("comments", Some("user_id = $UID"), "body", Modifier::Redact)
            .build()
            .unwrap(),
    )
    .unwrap();
    let report = edna.apply("Expiring", Some(&Value::Int(1))).unwrap();

    // Before expiry: reversible.
    assert_eq!(edna.purge_expired(1400).unwrap(), 0);
    // After expiry: purged, reveal refuses.
    assert_eq!(edna.purge_expired(1500).unwrap(), 1);
    assert!(matches!(
        edna.reveal(report.disguise_id),
        Err(Error::NotReversible { .. })
    ));
}

#[test]
fn vault_tiers_route_by_scope() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();
    edna.register(
        DisguiseSpecBuilder::new("AnonAll")
            .decorrelate("comments", None, "user_id", "users")
            .placeholder("users", "username", Generator::Random)
            .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
            .build()
            .unwrap(),
    )
    .unwrap();
    edna.apply("Scrub", Some(&Value::Int(1))).unwrap();
    edna.apply("AnonAll", None).unwrap();
    // User-scoped entries live in the per-user (encrypted) tier; the
    // global sweep's entries in the global tier.
    assert!(
        edna.vaults()
            .tier(VaultTier::PerUser)
            .entry_count()
            .unwrap()
            >= 1
    );
    assert!(edna.vaults().tier(VaultTier::Global).entry_count().unwrap() >= 1);
    assert!(edna.vaults().tier(VaultTier::PerUser).is_encrypted());
}

#[test]
fn missing_user_and_unknown_disguise_errors() {
    let db = forum_db();
    let edna = disguiser(&db);
    assert!(matches!(
        edna.apply("Scrub", None),
        Err(Error::MissingUser(_))
    ));
    assert!(matches!(
        edna.apply("Nope", None),
        Err(Error::NoSuchDisguise(_))
    ));
    assert!(matches!(
        edna.reveal(999),
        Err(Error::NoSuchApplication(999))
    ));
}

#[test]
fn dsl_round_trip_through_disguiser() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    let name = edna
        .register_dsl(
            r#"
disguise_name: "DslScrub"
user_to_disguise: $UID
tables: {
  users: {
    generate_placeholder: [
      (username, Random),
      (email, Default(NULL)),
      (disabled, Default(TRUE)),
    ],
  },
  comments: {
    transformations: [
      # Order matters: modify while the $UID predicate still matches,
      # then decorrelate.
      Modify(pred: "user_id = $UID", column: body, modifier: Redact),
      Decorrelate(pred: "user_id = $UID", foreign_key: (user_id, users)),
    ],
  },
}
assertions: [
  ("no attributed comments", comments, "user_id = $UID"),
]
"#,
        )
        .unwrap();
    let report = edna.apply(&name, Some(&Value::Int(1))).unwrap();
    assert_eq!(report.rows_decorrelated, 2);
    assert_eq!(report.rows_modified, 2);
    edna.reveal(report.disguise_id).unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM comments WHERE user_id = 1")
            .unwrap()
            .scalar()
            .unwrap(),
        &Value::Int(2)
    );
}

#[test]
fn policies_expire_and_decay() {
    use edna_core::policy::{DecayPolicy, DecayStage, ExpirationPolicy, Policy, Scheduler};

    let db = forum_db();
    db.execute("UPDATE users SET last_login = 100 WHERE id = 1")
        .unwrap();
    db.execute("UPDATE users SET last_login = 900 WHERE id = 2")
        .unwrap();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("ExpireUser")
            .user_scoped()
            .modify("comments", Some("user_id = $UID"), "body", Modifier::Redact)
            .build()
            .unwrap(),
    )
    .unwrap();
    edna.register(
        DisguiseSpecBuilder::new("DecayOld")
            .modify(
                "comments",
                Some("created_at < NOW() - 500"),
                "body",
                Modifier::Truncate(3),
            )
            .build()
            .unwrap(),
    )
    .unwrap();

    let mut sched = Scheduler::new();
    sched.add(Policy::Expiration(ExpirationPolicy {
        name: "expire-inactive".to_string(),
        disguise: "ExpireUser".to_string(),
        inactive_after: 400,
        user_query: "SELECT id FROM users WHERE last_login < $CUTOFF".to_string(),
        cadence: 100,
    }));
    sched.add(Policy::Decay(DecayPolicy {
        name: "decay".to_string(),
        stages: vec![DecayStage {
            disguise: "DecayOld".to_string(),
        }],
        cadence: 100,
    }));

    // At t=1000: bea (last_login=100) is inactive past 400s; axolotl is not.
    let reports = sched.tick(&edna, 1000).unwrap();
    let expired: Vec<_> = reports.iter().filter(|r| r.name == "ExpireUser").collect();
    assert_eq!(expired.len(), 1);
    assert_eq!(expired[0].user_id, Value::Int(1));
    // Decay truncated every comment older than 500 (created_at = 0 here);
    // bea's were already redacted to "[deleted]" → truncated to "[de".
    let bodies = db.execute("SELECT body FROM comments").unwrap().rows;
    assert!(bodies
        .iter()
        .all(|r| matches!(&r[0], Value::Text(s) if s.chars().count() <= 3)));

    // Second tick within the cadence window applies nothing new.
    let again = sched.tick(&edna, 1050).unwrap();
    assert!(again.is_empty());

    // Expired users are not re-disguised on later ticks (idempotence).
    let later = sched.tick(&edna, 2000).unwrap();
    assert!(later
        .iter()
        .all(|r| r.name != "ExpireUser" || r.user_id != Value::Int(1)));
}

#[test]
fn stats_grow_linearly_with_objects() {
    // The paper's §6 observation: queries grow linearly with the number of
    // disguised objects.
    let mut counts = Vec::new();
    for n in [10usize, 20, 40] {
        let db = Database::new();
        db.execute(
            "CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT NOT NULL, \
             disabled BOOL NOT NULL DEFAULT FALSE)",
        )
        .unwrap();
        db.execute(
            "CREATE TABLE notes (id INT PRIMARY KEY AUTO_INCREMENT, user_id INT NOT NULL, \
             body TEXT, FOREIGN KEY (user_id) REFERENCES users(id))",
        )
        .unwrap();
        db.execute("INSERT INTO users (name) VALUES ('bea')")
            .unwrap();
        for i in 0..n {
            db.execute(&format!(
                "INSERT INTO notes (user_id, body) VALUES (1, 'n{i}')"
            ))
            .unwrap();
        }
        let edna = Disguiser::new(db.clone());
        edna.register(
            DisguiseSpecBuilder::new("D")
                .user_scoped()
                .decorrelate("notes", Some("user_id = $UID"), "user_id", "users")
                .placeholder("users", "name", Generator::Random)
                .placeholder("users", "disabled", Generator::Default(Value::Bool(true)))
                .build()
                .unwrap(),
        )
        .unwrap();
        let report = edna.apply("D", Some(&Value::Int(1))).unwrap();
        assert_eq!(report.rows_decorrelated, n);
        counts.push((
            report.stats.rows_written as f64,
            report.stats.statements as f64,
        ));
    }
    // Doubling the object count should roughly double the rows written
    // (each note gets a placeholder insert plus an update)...
    let r1 = counts[1].0 / counts[0].0;
    let r2 = counts[2].0 / counts[1].0;
    assert!((1.6..=2.4).contains(&r1), "ratio {r1}");
    assert!((1.6..=2.4).contains(&r2), "ratio {r2}");
    // ...while batching keeps the *statement* count nearly flat: the
    // decorrelation issues one batched insert and one batched update
    // regardless of n.
    let s1 = counts[2].1 / counts[0].1;
    assert!(
        s1 < 1.5,
        "4x the objects must not cost 4x the statements under batching, got {s1}x"
    );
}

#[test]
fn tracer_emits_disguise_phase_spans() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(scrub_spec()).unwrap();

    let tracer = edna_core::Tracer::new(4096);
    edna.set_tracer(Some(tracer.clone()));
    let report = edna.apply("Scrub", Some(&Value::Int(1))).unwrap();

    let spans = tracer.spans();
    let labels: Vec<&str> = spans.iter().map(|s| s.label.as_str()).collect();
    // The root phase span, with disguise/user attrs.
    let root = spans
        .iter()
        .find(|s| s.label == "disguise_apply")
        .expect("root span");
    assert!(root.parent.is_none());
    assert!(root
        .attrs
        .iter()
        .any(|(k, v)| k == "disguise" && v == "Scrub"));
    assert!(root.attrs.iter().any(|(k, v)| k == "user" && v == "1"));
    // Every disguise phase shows up.
    for phase in [
        "transform",
        "predicate_scan",
        "placeholder_gen",
        "transform_write",
        "assertions",
        "history_append",
        "vault_write",
    ] {
        assert!(labels.contains(&phase), "missing phase span {phase}");
    }
    // Transform spans carry table/kind attrs and nest under the root.
    let decorrelate = spans
        .iter()
        .find(|s| {
            s.label == "transform"
                && s.attrs
                    .iter()
                    .any(|(k, v)| k == "kind" && v == "decorrelate")
        })
        .expect("decorrelate transform span");
    assert_eq!(decorrelate.parent, Some(root.id));
    assert!(decorrelate.attrs.iter().any(|(k, _)| k == "table"));
    // The vault write nests storage spans (vault_put) beneath the phase.
    let vault_phase = spans.iter().find(|s| s.label == "vault_write").unwrap();
    let vault_put = spans
        .iter()
        .find(|s| s.label == "vault_put")
        .expect("vault_put span from the vault layer");
    assert_eq!(vault_put.parent, Some(vault_phase.id));
    // Engine statement spans appear under the root too.
    assert!(labels.contains(&"statement"));

    // Reveal emits its own phase spans.
    tracer.clear();
    edna.reveal(report.disguise_id).unwrap();
    let labels: Vec<String> = tracer.spans().iter().map(|s| s.label.clone()).collect();
    for phase in [
        "reveal",
        "reinsert",
        "restore_columns",
        "placeholder_gc",
        "reapply",
    ] {
        assert!(
            labels.iter().any(|l| l == phase),
            "missing reveal phase {phase}"
        );
    }

    // Detaching the tracer stops span collection everywhere.
    tracer.clear();
    edna.set_tracer(None);
    edna.apply("Scrub", Some(&Value::Int(2))).unwrap();
    assert!(tracer.spans().is_empty());
}

/// A forum database with `n` users, each owning one story and one comment
/// on it (enough structure that Scrub touches every table per user).
fn forum_db_with_users(n: usize) -> Database {
    let db = forum_db();
    // Users 1 and 2 exist already; grow the population.
    for i in 3..=n {
        db.execute(&format!(
            "INSERT INTO users (username, email) VALUES ('u{i}', 'u{i}@x.org')"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO stories (user_id, title) VALUES ({i}, 'story {i}')"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO comments (user_id, story_id, body) VALUES ({i}, 1, 'hi from {i}')"
        ))
        .unwrap();
    }
    db
}

/// How many stories and comments reference `uid`.
fn contributions(db: &Database, uid: i64) -> (usize, usize) {
    let count = |table: &str| {
        db.execute(&format!("SELECT id FROM {table} WHERE user_id = {uid}"))
            .unwrap()
            .rows
            .len()
    };
    (count("stories"), count("comments"))
}

#[test]
fn apply_many_disguises_every_user() {
    let n = 40;
    let db = forum_db_with_users(n);
    let edna = disguiser(&db);
    let users: Vec<Value> = (1..=n as i64).map(Value::Int).collect();

    let report = edna.apply_many("Scrub", &users).unwrap();
    assert_eq!(report.users, n);
    assert_eq!(report.succeeded, n, "failures: {:?}", report.failures);
    assert!(report.failures.is_empty());
    assert_eq!(report.rows_removed, n, "one account row per user");
    assert_eq!(report.vault_entries, n, "one reveal entry per user");

    // Every account is gone; every contribution is decorrelated.
    for uid in 1..=n as i64 {
        assert!(db
            .execute(&format!("SELECT id FROM users WHERE id = {uid}"))
            .unwrap()
            .rows
            .is_empty());
        assert_eq!(contributions(&db, uid), (0, 0), "user {uid}");
    }
    // History recorded one application per user, and reveal still works.
    let event = edna
        .history()
        .latest("Scrub", &Value::Int(5))
        .unwrap()
        .expect("user 5 was disguised");
    assert!(event.reversible);
    edna.reveal(event.id).unwrap();
    assert_eq!(
        db.execute("SELECT username FROM users WHERE id = 5")
            .unwrap()
            .rows
            .len(),
        1,
        "revealed user 5 is back"
    );
}

#[test]
fn apply_many_matches_sequential_apply() {
    let n = 12;
    let seq_db = forum_db_with_users(n);
    let seq = disguiser(&seq_db);
    let many_db = forum_db_with_users(n);
    let many = disguiser(&many_db);
    let users: Vec<Value> = (1..=n as i64).map(Value::Int).collect();

    let mut seq_removed = 0;
    let mut seq_decorrelated = 0;
    for u in &users {
        let r = seq.apply("Scrub", Some(u)).unwrap();
        seq_removed += r.rows_removed;
        seq_decorrelated += r.rows_decorrelated;
    }
    let report = many.apply_many("Scrub", &users).unwrap();
    assert_eq!(report.rows_removed, seq_removed);
    assert_eq!(report.rows_decorrelated, seq_decorrelated);
    assert_eq!(seq_db.dump(), many_db.dump(), "same seed, same end state");
}

#[test]
fn apply_many_reports_per_user_failures_and_continues() {
    let db = forum_db_with_users(6);
    // Only user 2 has zero karma; the karma-gated remove below leaves
    // everyone else's account behind, tripping their end-state assertion.
    db.execute("UPDATE users SET karma = 1 WHERE id <> 2")
        .unwrap();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("Purge")
            .user_scoped()
            .decorrelate("stories", Some("user_id = $UID"), "user_id", "users")
            .decorrelate("comments", Some("user_id = $UID"), "user_id", "users")
            .remove("users", Some("id = $UID AND karma = 0"))
            .placeholder("users", "username", Generator::Random)
            .assert_empty("users", "id = $UID", "account removed")
            .build()
            .unwrap(),
    )
    .unwrap();
    let users: Vec<Value> = (1..=6).map(Value::Int).collect();
    let before: Vec<(usize, usize)> = (1..=6).map(|u| contributions(&db, u)).collect();
    let report = edna.apply_many("Purge", &users).unwrap();
    assert_eq!(report.succeeded, 1, "only the zero-karma user purges");
    assert_eq!(report.failures.len(), 5);
    assert!(report
        .failures
        .iter()
        .all(|(_, msg)| msg.contains("account removed")));
    assert!(report.failures.iter().all(|(u, _)| *u != Value::Int(2)));
    // A failed user's application rolled back whole: their stories and
    // comments still reference them, and history holds only user 2.
    for (uid, before) in (1..=6).zip(before) {
        let expected = if uid == 2 { (0, 0) } else { before };
        assert_eq!(contributions(&db, uid), expected, "user {uid}");
    }
    assert_eq!(edna.history().events().unwrap().len(), 1);
}

#[test]
fn apply_many_rolls_back_a_user_whose_vault_put_fails() {
    let n = 6;
    let db = forum_db_with_users(n);
    // Scrub writes the per-user tier; its third put (user 3's) fails.
    let vaults = TieredVault::new(
        Vault::plain(MemoryStore::new()),
        Vault::plain(FaultyStore::new(
            MemoryStore::new(),
            FaultPlan::new(5).fail_nth(2),
        )),
    );
    let edna = Disguiser::with_vaults(db.clone(), vaults);
    edna.register(scrub_spec()).unwrap();
    let users: Vec<Value> = (1..=n as i64).map(Value::Int).collect();
    let before = contributions(&db, 3);

    let report = edna.apply_many("Scrub", &users).unwrap();
    assert_eq!(report.succeeded, n - 1);
    assert_eq!(report.vault_entries, n - 1);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, Value::Int(3));
    assert!(
        report.failures[0].1.contains("vault"),
        "{:?}",
        report.failures
    );

    // User 3 is untouched: account, contributions, no history, no entry.
    assert_eq!(
        db.execute("SELECT username FROM users WHERE id = 3")
            .unwrap()
            .rows,
        vec![vec![Value::Text("u3".into())]]
    );
    assert_eq!(contributions(&db, 3), before);
    assert!(edna
        .history()
        .latest("Scrub", &Value::Int(3))
        .unwrap()
        .is_none());
    assert!(edna
        .vaults()
        .entries_for(&Value::Int(3))
        .unwrap()
        .is_empty());

    // Everyone else is disguised and revealable.
    for uid in [1, 2, 4, 5, 6] {
        let event = edna
            .history()
            .latest("Scrub", &Value::Int(uid))
            .unwrap()
            .unwrap_or_else(|| panic!("user {uid} was disguised"));
        assert_eq!(contributions(&db, uid), (0, 0), "user {uid}");
        edna.reveal(event.id).unwrap();
    }
    assert_eq!(db.row_count("users").unwrap(), n);
}

#[test]
fn apply_many_rejects_global_disguises() {
    let db = forum_db();
    let edna = Disguiser::new(db.clone());
    edna.register(
        DisguiseSpecBuilder::new("Decay")
            .remove("comments", Some("created_at < 100"))
            .build()
            .unwrap(),
    )
    .unwrap();
    let err = edna.apply_many("Decay", &[Value::Int(1)]).unwrap_err();
    assert!(matches!(err, Error::SpecInvalid { .. }), "got {err:?}");
}
