//! The three traffic mixes and their seeded request generators.
//!
//! A generator ([`Mix`]) yields a workload's request stream. It depends
//! only on the seed and the prepared instance's ids, never on timing or
//! on server replies, so the same seed always yields the same request
//! sequence, on the wire and in the traced replay.
//!
//! Every request is valid on correct code:
//! - an apply targets a user that is not disguised;
//! - a reveal undoes the newest standing disguise;
//! - a cohort (`apply_many`) takes users that nothing ever used before,
//!   and is issued only while no apply stands, so every reveal stays
//!   newer than every cohort;
//! - `HotCRP-ConfAnon` is never revealed.

use std::collections::VecDeque;

use edna_util::rng::{Prng, Rng};

/// Which application a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// HotCRP at the paper's §6 size.
    HotCrp,
    /// Lobsters at `sized(10_000)`.
    Lobsters,
}

/// The kept workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, read-dominated, HotCRP with an encrypted per-user vault.
    ReviewCycle,
    /// Closed loop, write-dominated, Lobsters cohorts plus single pairs.
    GdprWave,
    /// Closed loop, one connection, GDPR+ composed over ConfAnon.
    ConfAnonCompose,
}

/// Passphrase of the HotCRP workspaces: the per-user vault tier is
/// encrypted (paper §4.2).
pub const HOTCRP_PASSPHRASE: &str = "perfbench-passphrase";

/// Shards requested by every `apply_many`: one per core of a 2-core host.
pub const COHORT_SHARDS: usize = 2;

impl Workload {
    /// Every workload. `BENCHMARK.json` keeps the wave and the compose
    /// loop; the review cycle runs on demand (see `NOTES.md`).
    pub const ALL: [Workload; 3] = [
        Workload::ReviewCycle,
        Workload::GdprWave,
        Workload::ConfAnonCompose,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReviewCycle => "hotcrp-review-cycle",
            Workload::GdprWave => "lobsters-gdpr-wave",
            Workload::ConfAnonCompose => "hotcrp-confanon-compose",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The application under the workload.
    pub fn app(self) -> App {
        match self {
            Workload::GdprWave => App::Lobsters,
            Workload::ReviewCycle | Workload::ConfAnonCompose => App::HotCrp,
        }
    }

    /// The workspace passphrase: HotCRP encrypts the per-user tier;
    /// `Lobsters-GDPR` writes only the global tier, so Lobsters runs in
    /// plaintext.
    pub fn passphrase(self) -> Option<&'static str> {
        match self.app() {
            App::HotCrp => Some(HOTCRP_PASSPHRASE),
            App::Lobsters => None,
        }
    }

    /// The user-scoped disguise the mix applies and reveals.
    pub fn disguise(self) -> &'static str {
        match self.app() {
            App::HotCrp => "HotCRP-GDPR+",
            App::Lobsters => "Lobsters-GDPR",
        }
    }

    /// Connections the load generator holds.
    pub fn connections(self) -> usize {
        match self {
            Workload::ReviewCycle => 2,
            Workload::GdprWave | Workload::ConfAnonCompose => 1,
        }
    }

    /// The open-loop arrival rate (requests per second), or `None` for a
    /// closed loop.
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Workload::ReviewCycle => Some(NOMINAL_RATE),
            Workload::GdprWave | Workload::ConfAnonCompose => None,
        }
    }
}

/// The review cycle's nominal arrival rate, about a fifth of its mix's
/// closed-loop capacity on a 2-core host: low enough that a slower host
/// does not turn into queueing (see `NOTES.md`).
pub const NOMINAL_RATE: f64 = 45.0;

/// Ids of a prepared instance's principals and rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ids {
    /// HotCRP PC members, who have many attributed rows; Lobsters users
    /// nobody invited.
    pub heavy: Vec<i64>,
    /// The other users: HotCRP authors, invited Lobsters users.
    pub light: Vec<i64>,
    /// Readable items (HotCRP papers, Lobsters stories).
    pub items: Vec<i64>,
    /// Writable rows (HotCRP reviews; empty for Lobsters, which inserts).
    pub rows: Vec<i64>,
}

impl Ids {
    /// One line per list, ids separated by spaces.
    pub fn encode(&self) -> String {
        [&self.heavy, &self.light, &self.items, &self.rows]
            .iter()
            .map(|v| v.iter().map(i64::to_string).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    }

    /// Inverse of [`Ids::encode`].
    pub fn decode(text: &str) -> Result<Ids, String> {
        let mut lists = text.split('\n').map(|line| {
            line.split_whitespace()
                .map(|t| t.parse::<i64>().map_err(|e| format!("bad id {t:?}: {e}")))
                .collect::<Result<Vec<i64>, String>>()
        });
        let mut next = || lists.next().unwrap_or(Ok(Vec::new()));
        Ok(Ids {
            heavy: next()?,
            light: next()?,
            items: next()?,
            rows: next()?,
        })
    }
}

/// An operation class: each gets its own latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// App `sql` SELECT.
    Read,
    /// App `sql` INSERT/UPDATE.
    Write,
    /// Single-user `apply`.
    Apply,
    /// `reveal` with the minted capability.
    Reveal,
    /// `apply_many` cohort.
    ApplyMany,
}

impl Class {
    /// Every class.
    pub const ALL: [Class; 5] = [
        Class::Read,
        Class::Write,
        Class::Apply,
        Class::Reveal,
        Class::ApplyMany,
    ];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Apply => "apply",
            Class::Reveal => "reveal",
            Class::ApplyMany => "apply_many",
        }
    }

    /// Whether the service runs this class under its door's write side.
    pub fn exclusive(self) -> bool {
        matches!(self, Class::Apply | Class::Reveal | Class::ApplyMany)
    }
}

/// How an acknowledged write is checked at the end of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCheck {
    /// Writes with one key overwrite each other; the last acknowledged
    /// one must be what the final state holds.
    pub key: String,
    /// A query that returns exactly one row when the write is present;
    /// `{id}` stands for the insert's `last-insert-id`.
    pub verify: String,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// An app SELECT.
    Read(String),
    /// An app INSERT/UPDATE.
    Write(String, WriteCheck),
    /// Apply the workload's disguise to a user.
    Apply(i64),
    /// Reveal the newest standing apply, which was for this user.
    Reveal(i64),
    /// Apply the workload's disguise to a cohort of fresh users.
    ApplyMany(Vec<i64>),
}

impl Op {
    /// The op's class.
    pub fn class(&self) -> Class {
        match self {
            Op::Read(_) => Class::Read,
            Op::Write(..) => Class::Write,
            Op::Apply(_) => Class::Apply,
            Op::Reveal(_) => Class::Reveal,
            Op::ApplyMany(_) => Class::ApplyMany,
        }
    }
}

/// The review page: same text as `hotcrp::workload::reviews_for_paper`.
pub fn hotcrp_review_page(paper: i64) -> String {
    format!(
        "SELECT r.reviewId, c.firstName, c.lastName, r.overAllMerit, r.commentsToAuthor \
         FROM Review r INNER JOIN ContactInfo c ON c.contactId = r.contactId \
         WHERE r.paperId = {paper} AND r.reviewSubmitted = 1 ORDER BY r.reviewId"
    )
}

/// The account page: same text as `hotcrp::workload::user_profile`.
pub fn hotcrp_profile(contact: i64) -> String {
    format!(
        "SELECT c.firstName, c.lastName, c.email, c.affiliation, c.disabled \
         FROM ContactInfo c WHERE c.contactId = {contact}"
    )
}

/// The homepage: same text as `hotcrp::workload::paper_list`.
pub const HOTCRP_PAPER_LIST: &str = "SELECT p.paperId, p.title, COUNT(r.reviewId) AS reviews \
     FROM Paper p LEFT JOIN Review r ON r.paperId = p.paperId \
     WHERE p.timeSubmitted > 0 \
     GROUP BY p.paperId ORDER BY p.paperId";

fn hotcrp_score(review: i64, score: i64) -> Op {
    Op::Write(
        format!("UPDATE Review SET overAllMerit = {score} WHERE reviewId = {review}"),
        WriteCheck {
            key: format!("review {review}"),
            verify: format!(
                "SELECT reviewId FROM Review WHERE reviewId = {review} AND overAllMerit = {score}"
            ),
        },
    )
}

fn lobsters_story(story: i64) -> String {
    format!("SELECT id, title, url, score, user_id FROM stories WHERE id = {story}")
}

fn lobsters_comments(story: i64) -> String {
    format!(
        "SELECT id, user_id, parent_comment_id, comment, score FROM comments \
         WHERE story_id = {story} ORDER BY id"
    )
}

fn lobsters_vote(user: i64, story: i64, seq: u64) -> Op {
    Op::Write(
        format!("INSERT INTO votes (user_id, story_id, vote) VALUES ({user}, {story}, 1)"),
        WriteCheck {
            key: format!("vote {user} {seq}"),
            verify: format!(
                "SELECT id FROM votes WHERE id = {{id}} AND user_id = {user} AND story_id = {story}"
            ),
        },
    )
}

fn lobsters_comment(user: i64, story: i64, seq: u64) -> Op {
    Op::Write(
        format!(
            "INSERT INTO comments (user_id, story_id, comment, created_at) \
             VALUES ({user}, {story}, 'perfbench comment {seq}', 0)"
        ),
        WriteCheck {
            key: format!("comment {user} {seq}"),
            verify: format!(
                "SELECT id FROM comments WHERE id = {{id}} AND user_id = {user} \
                 AND comment = 'perfbench comment {seq}'"
            ),
        },
    )
}

fn pick(rng: &mut Prng, v: &[i64]) -> i64 {
    v[rng.gen_range(0..v.len())]
}

/// The users, rows and writers the stream draws from.
#[derive(Debug, Clone)]
struct Pools {
    /// Users the stream applies to and reveals, cycled.
    apply: Vec<i64>,
    /// Fresh users for cohorts, consumed front to back.
    cohort: VecDeque<i64>,
    /// Rows the stream updates (HotCRP) or users it writes as (Lobsters).
    write: Vec<i64>,
}

impl Pools {
    fn new(w: Workload, ids: &Ids) -> Pools {
        let (heavy, light) = (&ids.heavy, &ids.light);
        match w.app() {
            App::HotCrp => {
                // Cohort users come off the back of the author share. The
                // review cycle applies to authors only, so each latency
                // mode is one population; the compose loop cycles authors
                // and PC members 2:1, so its p50 falls among authors and
                // its p90 among PC members, whose many reviews are what
                // composition recorrelates.
                let cohort_n = light.len() * 2 / 5;
                let (apply_light, cohort) = light.split_at(light.len() - cohort_n);
                let mut apply = Vec::new();
                let mut h = heavy.iter().cycle();
                for (i, &u) in apply_light.iter().enumerate() {
                    apply.push(u);
                    if i % 2 == 1 && w == Workload::ConfAnonCompose {
                        if let Some(&p) = h.next() {
                            apply.push(p);
                        }
                    }
                }
                Pools {
                    apply,
                    cohort: cohort.iter().copied().collect(),
                    write: ids.rows.clone(),
                }
            }
            App::Lobsters => {
                // Applies go to users nobody invited: a cohort that
                // disguises a user's inviter rewrites that user's account
                // row, which the end-of-run check compares with the
                // prepared one.
                let (write, cohort) = light.split_at(100.min(light.len()));
                Pools {
                    apply: heavy.clone(),
                    cohort: cohort.iter().copied().collect(),
                    write: write.to_vec(),
                }
            }
        }
    }
}

/// A workload's request generator.
#[derive(Debug, Clone)]
pub struct Mix {
    workload: Workload,
    rng: Prng,
    items: Vec<i64>,
    contacts: Vec<i64>,
    pools: Pools,
    /// The generator's model of the standing applies.
    stack: Vec<i64>,
    apply_cursor: usize,
    script: VecDeque<Op>,
    slots: u64,
    seq: u64,
}

impl Mix {
    /// The generator of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, ids: &Ids) -> Mix {
        let mut contacts = ids.heavy.clone();
        contacts.extend_from_slice(&ids.light);
        Mix {
            workload,
            rng: Prng::seed_from_u64(seed),
            items: ids.items.clone(),
            contacts,
            pools: Pools::new(workload, ids),
            stack: Vec::new(),
            apply_cursor: 0,
            script: VecDeque::new(),
            slots: 0,
            seq: 0,
        }
    }

    fn item(&mut self) -> i64 {
        pick(&mut self.rng, &self.items)
    }

    /// The next apply target: the pool cycled, skipping standing users.
    fn apply(&mut self) -> Op {
        loop {
            let u = self.pools.apply[self.apply_cursor % self.pools.apply.len()];
            self.apply_cursor += 1;
            if !self.stack.contains(&u) {
                self.stack.push(u);
                return Op::Apply(u);
            }
        }
    }

    fn reveal(&mut self) -> Op {
        Op::Reveal(self.stack.pop().expect("reveal only with a standing apply"))
    }

    fn cohort(&mut self, size: usize) -> Option<Op> {
        if !self.stack.is_empty() || self.pools.cohort.len() < size {
            return None;
        }
        Some(Op::ApplyMany(self.pools.cohort.drain(..size).collect()))
    }

    fn write(&mut self) -> Op {
        self.seq += 1;
        let target = pick(&mut self.rng, &self.pools.write);
        match self.workload.app() {
            App::HotCrp => {
                let score = self.rng.gen_range(1..=5i64);
                hotcrp_score(target, score)
            }
            App::Lobsters => {
                let story = self.item();
                let seq = self.seq;
                if self.seq.is_multiple_of(2) {
                    lobsters_vote(target, story, seq)
                } else {
                    lobsters_comment(target, story, seq)
                }
            }
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.script.pop_front() {
            return op;
        }
        match self.workload {
            Workload::ReviewCycle => self.review_cycle(),
            Workload::GdprWave => {
                self.wave_round();
                self.script.pop_front().expect("a round is never empty")
            }
            Workload::ConfAnonCompose => {
                self.compose_round();
                self.script.pop_front().expect("a round is never empty")
            }
        }
    }

    /// Independent users: 67% reads (review pages, then profiles, then
    /// the paper list), 12% score updates, 21% disguise slots. Review
    /// pages are most of the reads, so the read median is theirs.
    fn review_cycle(&mut self) -> Op {
        let r: f64 = self.rng.gen();
        if r < 0.45 {
            let p = self.item();
            Op::Read(hotcrp_review_page(p))
        } else if r < 0.65 {
            Op::Read(hotcrp_profile(pick(&mut self.rng, &self.contacts)))
        } else if r < 0.67 {
            Op::Read(HOTCRP_PAPER_LIST.to_string())
        } else if r < 0.79 {
            self.write()
        } else {
            // Every fourth slot that finds no standing apply is a cohort.
            if self.stack.is_empty() {
                self.slots += 1;
                if self.slots.is_multiple_of(4) {
                    if let Some(op) = self.cohort(4) {
                        return op;
                    }
                }
            }
            if !self.stack.is_empty() && (self.stack.len() >= 2 || self.rng.gen_bool(0.5)) {
                self.reveal()
            } else {
                self.apply()
            }
        }
    }

    /// A story page: the story, then its comments.
    fn story_page(&mut self) {
        let s = self.item();
        self.script.push_back(Op::Read(lobsters_story(s)));
        self.script.push_back(Op::Read(lobsters_comments(s)));
    }

    /// One cohort, then one apply→reveal pair, with story pages read and a
    /// vote or comment written on either side of the reveal. Each reveal
    /// is the newest standing disguise.
    fn wave_round(&mut self) {
        if let Some(op) = self.cohort(6) {
            self.script.push_back(op);
        }
        let apply = self.apply();
        self.script.push_back(apply);
        self.story_page();
        self.story_page();
        let w = self.write();
        self.script.push_back(w);
        let reveal = self.reveal();
        self.script.push_back(reveal);
        self.story_page();
        self.story_page();
        let w = self.write();
        self.script.push_back(w);
    }

    /// One user through GDPR+ over ConfAnon and back, with a review page
    /// read and a score written in between; every 25th round opens with a
    /// cohort. The one read class is the review-page join, whose
    /// milliseconds of work the host's scheduling jitter does not swamp.
    fn compose_round(&mut self) {
        self.slots += 1;
        if self.slots.is_multiple_of(25) {
            if let Some(op) = self.cohort(2) {
                self.script.push_back(op);
            }
        }
        let apply = self.apply();
        self.script.push_back(apply);
        let p = self.item();
        self.script.push_back(Op::Read(hotcrp_review_page(p)));
        let w = self.write();
        self.script.push_back(w);
        let reveal = self.reveal();
        self.script.push_back(reveal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> Ids {
        Ids {
            heavy: (1..=30).collect(),
            light: (31..=430).collect(),
            items: (1..=450).collect(),
            rows: (1..=1400).collect(),
        }
    }

    fn lobsters_ids() -> Ids {
        Ids {
            heavy: (1..=600).collect(),
            light: (601..=2000).collect(),
            items: (1..=4000).collect(),
            rows: Vec::new(),
        }
    }

    fn ids_for(w: Workload) -> Ids {
        match w.app() {
            App::HotCrp => ids(),
            App::Lobsters => lobsters_ids(),
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        for w in Workload::ALL {
            let mut a = Mix::new(w, 42, &ids_for(w));
            let mut b = Mix::new(w, 42, &ids_for(w));
            let mut c = Mix::new(w, 43, &ids_for(w));
            let sa: Vec<Op> = (0..3000).map(|_| a.next_op()).collect();
            let sb: Vec<Op> = (0..3000).map(|_| b.next_op()).collect();
            let sc: Vec<Op> = (0..3000).map(|_| c.next_op()).collect();
            assert_eq!(sa, sb, "{}", w.name());
            assert_ne!(sa, sc, "{}: seed must matter", w.name());
        }
    }

    #[test]
    fn sequences_are_valid_on_correct_code() {
        for w in Workload::ALL {
            let mut mix = Mix::new(w, 7, &ids_for(w));
            let mut cohort_users = std::collections::BTreeSet::new();
            let mut standing: Vec<i64> = Vec::new();
            let mut classes = std::collections::BTreeSet::new();
            for _ in 0..5000 {
                let op = mix.next_op();
                classes.insert(op.class());
                match op {
                    Op::Apply(u) => {
                        assert!(!standing.contains(&u), "{}: {u} applied twice", w.name());
                        assert!(!cohort_users.contains(&u));
                        standing.push(u);
                    }
                    Op::Reveal(u) => {
                        assert_eq!(standing.pop(), Some(u), "{}: reveal not newest", w.name());
                    }
                    Op::ApplyMany(cohort) => {
                        assert!(standing.is_empty(), "cohort over a standing apply");
                        for u in cohort {
                            assert!(cohort_users.insert(u), "cohort user {u} reused");
                        }
                    }
                    Op::Read(_) | Op::Write(..) => {}
                }
            }
            assert_eq!(classes.len(), Class::ALL.len(), "{}: {classes:?}", w.name());
        }
    }

    #[test]
    fn ids_round_trip() {
        let i = ids();
        assert_eq!(Ids::decode(&i.encode()).unwrap(), i);
        let l = lobsters_ids();
        assert_eq!(Ids::decode(&l.encode()).unwrap(), l);
    }

    #[test]
    fn review_page_matches_the_app_query() {
        use edna_apps::hotcrp::{self, generate, workload as app};
        let db = hotcrp::create_db().unwrap();
        let inst = generate::generate(&db, &generate::HotCrpConfig::small()).unwrap();
        let p = inst.paper_ids[0];
        let c = inst.pc_contact_ids[0];
        assert_eq!(
            db.execute(&hotcrp_review_page(p)).unwrap().rows,
            app::reviews_for_paper(&db, p).unwrap().rows
        );
        assert_eq!(
            db.execute(&hotcrp_profile(c)).unwrap().rows,
            app::user_profile(&db, c).unwrap().rows
        );
        assert_eq!(
            db.execute(HOTCRP_PAPER_LIST).unwrap().rows,
            app::paper_list(&db).unwrap().rows
        );
    }
}
