//! The seeded generator: hospital data, standing audits and the four
//! workloads' request streams, as the exact JSON lines the daemon receives.
//!
//! Everything the daemon sees comes from here and depends only on
//! (`Sizes`, workload, seed, tenant index). Three rules keep a workload's
//! *cost* independent of the seed, so runs with different seeds measure the
//! same work and differ only in order and constants (drawn independently,
//! ten seeds moved `ingest-hot`'s event count by 25% and its throughput
//! with it):
//!
//! * op kinds are dealt from a deck holding the exact count of each kind
//!   (largest-remainder rounding of the mix shares) and each kind is spread
//!   evenly over the stream with a seeded jitter, so every stretch of a
//!   stream — what one checkpoint covers, say — holds the same mix; the
//!   phrasings within a kind take turns;
//! * range parameters that decide how many rows a scan returns (`salary >
//!   x`, `age BETWEEN 20 AND x`) are dealt from an evenly spaced deck in an
//!   order in which any few consecutive draws span the range;
//! * every data column is a seeded permutation of a fixed multiset, and
//!   ages are dealt to the audited zones' patients and to the rest
//!   separately, so a `scan-wide` shortlists the same number of audits
//!   whatever the seed.

use std::fmt::Write as _;

/// First instant of the data load; every later instant is an offset.
const T_LOAD: i64 = 1_200_000_000;
/// First instant of the drive phase (op `j` runs at `T_DRIVE + j`).
const T_DRIVE: i64 = T_LOAD + 100_000;
/// The `now` every standing audit is registered at: past every driven op,
/// so `DURING … TO now()` admits the whole run.
const T_NOW: i64 = T_LOAD + 10_000_000;

const ROLES: [&str; 4] = ["doctor", "nurse", "clerk", "researcher"];
const PURPOSES: [&str; 4] = ["treatment", "billing", "research", "marketing"];

/// SplitMix64 (Steele, Lea & Flood 2014): the benchmark's own PRNG, so the
/// streams do not move when a vendored crate does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// FNV-1a, 64 bit — pins the generated streams in the unit tests and keys
/// the reply comparison between the daemon and the layer replay.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// One digest for a sequence of reply hashes, as hex: two processes that
/// answered the same stream the same way print the same digest.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> String {
    let bytes: Vec<u8> = hashes.into_iter().flat_map(u64::to_le_bytes).collect();
    format!("{:016x}", fnv1a64(&bytes))
}

/// What one generated request is, in the generator's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `log`: name/address, or the disease join, on an unaudited zone.
    PointClean,
    /// `log`: `SELECT salary FROM Employ WHERE salary > x`.
    ScanUnaudited,
    /// `log`: one of the three `querygen` phrasings on an audited zone.
    PointAudited,
    /// `log`: `SELECT age FROM Patients WHERE age BETWEEN 20 AND x`.
    ScanWide,
    /// `dml`: a one-row `UPDATE` of `Patients.zipcode` or `Health.disease`.
    DmlUpdate,
    /// `audit` of a random standing audit.
    AuditRead,
    /// `queue`, top 20.
    QueueRead,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PointClean => "point-clean",
            Kind::ScanUnaudited => "scan-unaudited",
            Kind::PointAudited => "point-audited",
            Kind::ScanWide => "scan-wide",
            Kind::DmlUpdate => "dml-update",
            Kind::AuditRead => "audit-read",
            Kind::QueueRead => "queue-read",
        }
    }

    pub fn is_log(self) -> bool {
        matches!(self, Kind::PointClean | Kind::ScanUnaudited | Kind::PointAudited | Kind::ScanWide)
    }
}

/// One request of a stream: its kind and the exact line sent.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub line: String,
}

/// A workload: its fixed name, its op count and its mix in parts per
/// thousand.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Ops per tenant and repetition at the default size.
    pub ops: usize,
    pub tenants: usize,
    pub mix: &'static [(Kind, usize)],
    /// `ServiceConfig::checkpoint_every`.
    pub checkpoint_every: Option<u64>,
}

const SPARSE_MIX: &[(Kind, usize)] =
    &[(Kind::PointClean, 650), (Kind::ScanUnaudited, 330), (Kind::PointAudited, 20)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest-sparse",
        why: "ROADMAP item 1's canonical shape: dispatch prunes nearly all audits, so front door, JSON, sqlparse, the shared execution and the WAL append carry the time; no DML, so caches always hit",
        ops: 2000,
        tenants: 1,
        mix: SPARSE_MIX,
        checkpoint_every: None,
    },
    Workload {
        name: "ingest-hot",
        why: "scoring- and broadcast-bound: scan-wide is a tenth of the ops and ~40% of the wall-clock, 18 events per query; core scoring, triage fold, event render and broadcast carry it, parse and dispatch do not",
        ops: 2000,
        tenants: 1,
        mix: &[(Kind::PointAudited, 700), (Kind::PointClean, 200), (Kind::ScanWide, 100)],
        checkpoint_every: None,
    },
    Workload {
        name: "mixed-churn",
        why: "reads beside writes: DML opens a new instant per op so snapshot and fact-probe caches miss, version chains grow, checkpoints run beside appends, audit and queue reads beside folds",
        ops: 4000,
        tenants: 1,
        // 55% log split 30/68/2 over audited / clean kinds / wide.
        mix: &[
            (Kind::PointAudited, 165),
            (Kind::PointClean, 247),
            (Kind::ScanUnaudited, 127),
            (Kind::ScanWide, 11),
            (Kind::DmlUpdate, 350),
            (Kind::AuditRead, 50),
            (Kind::QueueRead, 50),
        ],
        checkpoint_every: Some(1500),
    },
    Workload {
        name: "fleet-pair",
        why: "two tenants, one connection each, the ingest-sparse stream: the only workload with clients = cores, so shard-lock independence and allocator or registry contention show here alone",
        ops: 2000,
        tenants: 2,
        mix: SPARSE_MIX,
        checkpoint_every: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizes a run is generated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Patients, and zip zones: patient `i` starts in zone `i`.
    pub patients: usize,
    /// Standing audits, one per zone `k < audits`.
    pub audits: usize,
    /// Ops driven, as a percentage of each workload's default count.
    pub ops_percent: usize,
}

impl Sizes {
    pub const DEFAULT: Sizes = Sizes { patients: 1024, audits: 256, ops_percent: 100 };
    /// `--quick`: 300 ops where the default drives 2,000.
    pub const QUICK: Sizes = Sizes { patients: 128, audits: 16, ops_percent: 15 };

    pub fn ops_per_tenant(&self, w: &Workload) -> usize {
        w.ops * self.ops_percent / 100
    }
}

/// Tenant `t`'s name; tenant 0 is the fleet's default tenant.
pub fn tenant_name(t: usize) -> String {
    if t == 0 {
        "default".to_string()
    } else {
        format!("org-{t}")
    }
}

pub fn audit_name(k: usize) -> String {
    format!("zone-{k}")
}

fn zip(zone: usize) -> String {
    format!("1{zone:05}")
}

/// Escapes a string for embedding in a JSON string literal. Generated SQL
/// holds only printable ASCII, so quotes and backslashes are all there is.
fn esc(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// `,"tenant":"…"` for a named tenant, nothing for the default one.
pub fn tenant_field(t: usize) -> String {
    if t == 0 {
        String::new()
    } else {
        format!(",\"tenant\":\"{}\"", tenant_name(t))
    }
}

fn tenant_seed(seed: u64, t: usize) -> u64 {
    seed ^ (t as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
}

/// The set-up conversation of tenant `t`: schema, one bulk `INSERT` per
/// table (so an all-time `DATA-INTERVAL` spans a handful of versions, not
/// one per row), then one `register` per audited zone.
pub fn setup_lines(sizes: &Sizes, seed: u64, t: usize) -> Vec<String> {
    let mut rng = Rng::new(tenant_seed(seed, t) ^ 0x5e70b);
    let tf = tenant_field(t);
    let n = sizes.patients;
    let mut lines = Vec::new();
    if t > 0 {
        lines.push(format!("{{\"cmd\":\"create-tenant\",\"name\":\"{}\"}}", tenant_name(t)));
    }
    let schema =
        "CREATE TABLE Patients (pid TEXT, name TEXT, age INT, zipcode TEXT, address TEXT); \
                  CREATE TABLE Health (pid TEXT, ward TEXT, disease TEXT, drug TEXT); \
                  CREATE TABLE Employ (pid TEXT, employer TEXT, salary INT)";
    lines.push(format!("{{\"cmd\":\"dml\"{tf},\"ts\":{T_LOAD},\"sql\":\"{schema}\"}}"));

    let audited = sizes.audits.min(n);
    let age: Vec<usize> =
        rng.permutation(audited).into_iter().chain(rng.permutation(n - audited)).collect();
    let (ward, disease, drug, employer, salary) = (
        rng.permutation(n),
        rng.permutation(n),
        rng.permutation(n),
        rng.permutation(n),
        rng.permutation(n),
    );
    let mut patients = String::from("INSERT INTO Patients VALUES ");
    let mut health = String::from("INSERT INTO Health VALUES ");
    let mut employ = String::from("INSERT INTO Employ VALUES ");
    for i in 0..n {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            patients,
            "{sep}('p{i}', 'name-{i}', {}, '{}', 'addr-{i}')",
            18 + age[i] % 70,
            zip(i)
        );
        let _ = write!(
            health,
            "{sep}('p{i}', 'W{}', 'disease-{}', 'drug-{}')",
            1 + ward[i] % 19,
            disease[i] % 12,
            drug[i] % 30
        );
        let _ = write!(
            employ,
            "{sep}('p{i}', 'E{}', {})",
            1 + employer[i] % 49,
            5_000 + 45_000 * salary[i] / n
        );
    }
    for (k, sql) in [patients, health, employ].iter().enumerate() {
        let ts = T_LOAD + 10 + k as i64;
        lines.push(format!("{{\"cmd\":\"dml\"{tf},\"ts\":{ts},\"sql\":\"{}\"}}", esc(sql)));
    }
    for k in 0..sizes.audits {
        lines.push(format!(
            "{{\"cmd\":\"register\"{tf},\"name\":\"{}\",\"expr\":\"{}\",\"now\":{T_NOW}}}",
            audit_name(k),
            esc(&audit_expr(k))
        ));
    }
    lines
}

/// Standing audit `k`: the disease of zone `k`'s patients, over all time.
pub fn audit_expr(k: usize) -> String {
    format!(
        "DURING 1/1/1970 TO now() DATA-INTERVAL 1/1/1970 TO now() \
         AUDIT disease FROM Patients, Health \
         WHERE Patients.pid = Health.pid AND Patients.zipcode = '{}'",
        zip(k)
    )
}

/// Deals `n` kinds with the exact share each has in `mix` (parts per
/// thousand; largest remainders take the rounding). The `i`-th of a kind's
/// `c` ops lands at a seeded point of the `i`-th `c`-th of the stream.
fn deal_kinds(mix: &[(Kind, usize)], n: usize, rng: &mut Rng) -> Vec<Kind> {
    let total: usize = mix.iter().map(|(_, share)| share).sum();
    let mut counts: Vec<(Kind, usize, usize)> =
        mix.iter().map(|(k, share)| (*k, share * n / total, share * n % total)).collect();
    let mut short = n - counts.iter().map(|c| c.1).sum::<usize>();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by(|a, b| counts[*b].2.cmp(&counts[*a].2).then(a.cmp(b)));
    for i in by_remainder {
        if short == 0 {
            break;
        }
        counts[i].1 += 1;
        short -= 1;
    }
    let mut placed = Vec::with_capacity(n);
    for (kind, count, _) in counts {
        for i in 0..count {
            let at = ((i as u128) << 64 | u128::from(rng.next_u64())) / count as u128;
            placed.push((at, kind));
        }
    }
    placed.sort_by_key(|(at, _)| *at);
    placed.into_iter().map(|(_, kind)| kind).collect()
}

/// `count` values evenly spaced over `lo..hi`, in an order in which any few
/// consecutive draws span the range: a golden-ratio stride through them
/// from a seeded start.
fn deal_range(lo: usize, hi: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let stride = (count * 618 / 1000..).find(|s| gcd(*s, count) == 1).unwrap_or(1);
    let start = rng.below(count.max(1));
    (0..count).map(|i| lo + (hi - lo) * ((start + i * stride) % count) / count).collect()
}

/// Tenant `t`'s drive-phase stream for workload `w`.
pub fn drive_ops(w: &Workload, sizes: &Sizes, seed: u64, t: usize) -> Vec<Op> {
    let mut rng = Rng::new(tenant_seed(seed, t) ^ fnv1a64(w.name.as_bytes()));
    let tf = tenant_field(t);
    let n = sizes.ops_per_tenant(w);
    let kinds = deal_kinds(w.mix, n, &mut rng);
    let count = |kind: Kind| kinds.iter().filter(|k| **k == kind).count();
    let mut salary_floor = deal_range(10_000, 40_000, count(Kind::ScanUnaudited), &mut rng);
    let mut age_ceiling = deal_range(21, 60, count(Kind::ScanWide), &mut rng);
    let (audited, zones) = (sizes.audits, sizes.patients);

    let mut ops = Vec::with_capacity(n);
    let mut dealt = [0usize; 7];
    for (j, kind) in kinds.into_iter().enumerate() {
        let ts = T_DRIVE + j as i64;
        // The kind's phrasings take turns.
        let turn = dealt[kind as usize];
        dealt[kind as usize] += 1;
        let unaudited = zip(rng.range(audited, zones));
        let sql = match kind {
            Kind::PointClean if turn % 2 == 0 => {
                format!("SELECT name, address FROM Patients WHERE zipcode = '{unaudited}'")
            }
            Kind::PointClean => format!(
                "SELECT disease FROM Patients, Health \
                 WHERE Patients.pid = Health.pid AND Patients.zipcode = '{unaudited}'"
            ),
            Kind::ScanUnaudited => {
                format!(
                    "SELECT salary FROM Employ WHERE salary > {}",
                    salary_floor.pop().unwrap_or(10_000)
                )
            }
            Kind::PointAudited => {
                let target = zip(rng.below(audited));
                match turn % 3 {
                    0 => format!(
                        "SELECT disease FROM Patients, Health \
                         WHERE Patients.pid = Health.pid AND Patients.zipcode = '{target}'"
                    ),
                    1 => format!(
                        "SELECT name, disease FROM Patients, Health \
                         WHERE Patients.pid = Health.pid AND Patients.zipcode = '{target}' \
                         AND age > {}",
                        rng.range(18, 40)
                    ),
                    _ => format!(
                        "SELECT zipcode, disease FROM Patients, Health \
                         WHERE Patients.pid = Health.pid AND \
                         (Patients.zipcode = '{target}' OR Patients.zipcode = '{unaudited}')"
                    ),
                }
            }
            Kind::ScanWide => format!(
                "SELECT age FROM Patients WHERE age BETWEEN 20 AND {}",
                age_ceiling.pop().unwrap_or(21)
            ),
            // Zip codes move only among unaudited zones, so the audited
            // zones keep the one patient their standing audit protects.
            Kind::DmlUpdate if turn % 2 == 0 => format!(
                "UPDATE Patients SET zipcode = '{unaudited}' WHERE pid = 'p{}'",
                rng.range(audited, zones)
            ),
            Kind::DmlUpdate => format!(
                "UPDATE Health SET disease = 'disease-{}' WHERE pid = 'p{}'",
                rng.below(12),
                rng.below(zones)
            ),
            Kind::AuditRead | Kind::QueueRead => String::new(),
        };
        let line = match kind {
            Kind::DmlUpdate => {
                format!("{{\"cmd\":\"dml\"{tf},\"ts\":{ts},\"sql\":\"{}\"}}", esc(&sql))
            }
            Kind::AuditRead => {
                format!("{{\"cmd\":\"audit\"{tf},\"name\":\"{}\"}}", audit_name(rng.below(audited)))
            }
            Kind::QueueRead => format!("{{\"cmd\":\"queue\"{tf},\"top\":20}}"),
            _ => format!(
                "{{\"cmd\":\"log\"{tf},\"ts\":{ts},\"user\":\"u{}\",\"role\":\"{}\",\
                 \"purpose\":\"{}\",\"sql\":\"{}\"}}",
                rng.below(50),
                ROLES[rng.below(ROLES.len())],
                PURPOSES[rng.below(PURPOSES.len())],
                esc(&sql)
            ),
        };
        ops.push(Op { kind, line });
    }
    ops
}

/// The standing audits whose `audit` reply is compared, byte for byte,
/// before shutdown and after reopen.
pub fn fixed_audits(sizes: &Sizes) -> Vec<String> {
    (0..8).map(|i| audit_name(i * sizes.audits / 8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a stream's request lines, newline-terminated.
    fn stream_hash(ops: &[Op]) -> u64 {
        let text: String = ops.iter().flat_map(|op| [op.line.as_str(), "\n"]).collect();
        fnv1a64(text.as_bytes())
    }

    #[test]
    fn default_streams_are_pinned() {
        // Changing a stream changes what every committed baseline measured:
        // measure again and update README.md's first readings with these.
        let got: Vec<String> = [
            ("ingest-sparse", 0),
            ("ingest-hot", 0),
            ("mixed-churn", 0),
            ("fleet-pair", 0),
            ("fleet-pair", 1),
        ]
        .iter()
        .map(|(name, tenant)| {
            let ops = drive_ops(workload(name).unwrap(), &Sizes::DEFAULT, 1, *tenant);
            format!("{name}/{tenant} {:016x}", stream_hash(&ops))
        })
        .collect();
        let pinned = [
            "ingest-sparse/0 2988eee67915fd14",
            "ingest-hot/0 59232d89e8b1b501",
            "mixed-churn/0 ed42703248e7d2ba",
            "fleet-pair/0 695c2e39ef971acd",
            "fleet-pair/1 611148cab16f3e55",
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in &WORKLOADS {
            let a = drive_ops(w, &Sizes::QUICK, 7, 0);
            let b = drive_ops(w, &Sizes::QUICK, 7, 0);
            let c = drive_ops(w, &Sizes::QUICK, 8, 0);
            assert_eq!(stream_hash(&a), stream_hash(&b));
            assert_ne!(stream_hash(&a), stream_hash(&c));
        }
        assert_eq!(setup_lines(&Sizes::QUICK, 7, 1), setup_lines(&Sizes::QUICK, 7, 1));
        assert_ne!(setup_lines(&Sizes::QUICK, 7, 0), setup_lines(&Sizes::QUICK, 8, 0));
    }

    #[test]
    fn mix_shares_are_exact_for_every_seed() {
        for w in &WORKLOADS {
            let n = Sizes::DEFAULT.ops_per_tenant(w);
            for seed in [1, 2, 99] {
                let ops = drive_ops(w, &Sizes::DEFAULT, seed, 0);
                assert_eq!(ops.len(), n);
                for (kind, share) in w.mix {
                    let got = ops.iter().filter(|op| op.kind == *kind).count();
                    let exact = share * n / 1000;
                    assert!(got == exact || got == exact + 1, "{} {}: {got}", w.name, kind.name());
                }
            }
        }
        // The issue's floor: no workload drives fewer than 2,000 `log` ops.
        for w in &WORKLOADS {
            let ops = drive_ops(w, &Sizes::DEFAULT, 1, 0);
            assert!(ops.iter().filter(|op| op.kind.is_log()).count() >= 2000, "{}", w.name);
        }
    }

    #[test]
    fn every_stretch_of_a_stream_holds_the_mix() {
        let w = workload("mixed-churn").unwrap();
        for seed in [1, 2, 99] {
            let ops = drive_ops(w, &Sizes::DEFAULT, seed, 0);
            for (kind, share) in w.mix {
                for end in (500..=ops.len()).step_by(500) {
                    let got = ops[..end].iter().filter(|op| op.kind == *kind).count();
                    // A shuffled deck strays by tens here.
                    assert!(got.abs_diff(share * end / 1000) <= 8, "{} {end}: {got}", kind.name());
                }
            }
        }
        for count in [0, 1, 2, 44, 200, 660] {
            let mut deck = deal_range(21, 60, count, &mut Rng::new(5));
            for run in deck.chunks_exact(8) {
                let (lo, hi) = (run.iter().min().unwrap(), run.iter().max().unwrap());
                assert!(hi - lo >= 24, "{count}: {run:?} does not span 21..60");
            }
            deck.sort_unstable();
            let even: Vec<usize> = (0..count).map(|i| 21 + 39 * i / count).collect();
            assert_eq!(deck, even);
        }
    }

    #[test]
    fn generated_lines_parse_as_requests() {
        for w in &WORKLOADS {
            for t in 0..w.tenants {
                let setup = setup_lines(&Sizes::QUICK, 3, t);
                let ops = drive_ops(w, &Sizes::QUICK, 3, t);
                for line in setup.iter().chain(ops.iter().map(|op| &op.line)) {
                    let env = audex_service::parse_envelope(line)
                        .unwrap_or_else(|e| panic!("{line}: {e}"));
                    // Fleet ops address the fleet; everything else its tenant.
                    assert_eq!(env.tenant.is_some(), t > 0 && !env.req.is_fleet_op(), "{line}");
                }
            }
        }
    }
}
