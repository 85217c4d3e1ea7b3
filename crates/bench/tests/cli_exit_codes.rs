//! The `sixg-cli` exit-code contract, tested against the real binary.
//!
//! `0` success; `1` reachable-but-invalid input (spec/sweep validation
//! failures); `2` usage errors (unknown subcommand or flag, missing operand,
//! flag without a value, unreadable file, bad flag value) with the usage
//! text on stderr. The distinction lets CI and scripts tell a broken
//! invocation from a broken spec. `sixg-serve` follows the same rule for a
//! flag without a value.

use sixg_measure::klagenfurt::klagenfurt_spec;
use sixg_measure::spec::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CLI: &str = env!("CARGO_BIN_EXE_sixg-cli");

fn run(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().expect("sixg-cli spawns")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("sixg-cli must exit, not be signalled")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// A scratch file that cleans up after itself.
struct TempFile(PathBuf);

impl TempFile {
    fn with_content(name: &str, content: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("sixg-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).expect("write temp spec");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn missing_subcommand_is_a_usage_error() {
    let out = run(&[]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("missing subcommand"), "{err}");
    assert!(err.contains("USAGE"), "usage text must reach stderr: {err}");
}

#[test]
fn unknown_subcommand_exits_two_with_usage_on_stderr() {
    let out = run(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("frobnicate"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_operand_exits_two() {
    for sub in ["run", "sweep", "validate"] {
        let out = run(&[sub]);
        assert_eq!(code(&out), 2, "{sub} without operand");
        assert!(stderr(&out).contains("USAGE"), "{sub}: usage text expected");
    }
}

#[test]
fn missing_file_exits_two_with_usage() {
    for sub in ["run", "sweep"] {
        let out = run(&[sub, "/nonexistent/never-there.json"]);
        assert_eq!(code(&out), 2, "{sub} on a missing file");
        let err = stderr(&out);
        assert!(err.contains("cannot read"), "{sub}: {err}");
        assert!(err.contains("USAGE"), "{sub}: {err}");
    }
}

#[test]
fn bad_flag_value_exits_two() {
    let spec = specs_dir().join("klagenfurt.json");
    let out = run(&["run", spec.to_str().unwrap(), "--passes", "many"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("invalid value"), "{}", stderr(&out));
    // A typo'd --backend is the same class of mistake: a bad flag, not an
    // invalid spec.
    let out = run(&["run", spec.to_str().unwrap(), "--backend", "evnt"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("evnt"), "{}", stderr(&out));
}

/// A flag `run` does not list, a flag without its value, and a flag whose
/// value is the next flag are usage errors: none of them may run the spec
/// on defaults or write a report to a file named after a flag.
#[test]
fn malformed_run_flags_exit_two_and_write_nothing() {
    let spec = specs_dir().join("skopje.json");
    let spec = spec.to_str().unwrap();
    let cwd = std::env::temp_dir().join(format!("sixg-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create scratch cwd");
    for args in [
        vec!["run", spec, "--pases", "1"],
        vec!["run", spec, "--passes"],
        vec!["run", spec, "--passes", "1", "--json", "--threads", "2"],
    ] {
        let shown = args.join(" ");
        let out = Command::new(CLI).args(&args).current_dir(&cwd).output().expect("spawn");
        assert_eq!(code(&out), 2, "`{shown}` must be a usage error: {}", stderr(&out));
        assert!(stderr(&out).contains("USAGE"), "`{shown}`: {}", stderr(&out));
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("list scratch cwd").flatten().collect();
    assert!(written.is_empty(), "a usage error wrote {:?}", written[0].path());
    let _ = std::fs::remove_dir_all(&cwd);
}

/// `sixg-serve` applies the same missing-value rule: a value-less `--addr`
/// exits 2 instead of binding the default address and serving forever.
#[test]
fn serve_flag_without_a_value_exits_two() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sixg-serve"))
        .arg("--addr")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("sixg-serve spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll sixg-serve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`sixg-serve --addr` was still running after 10 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
    let mut err = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut err)
        .expect("read stderr");
    assert!(err.contains("--addr needs a value"), "{err}");
}

/// An unreadable entry in a validate batch must not mask the files after
/// it: the rest of the batch is still validated, and the final exit code
/// is 2 (usage) because of the unreadable path.
#[test]
fn validate_batch_continues_past_unreadable_files() {
    let spec = specs_dir().join("klagenfurt.json");
    let out = run(&["validate", "/nonexistent/never-there.json", spec.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("ok"),
        "the readable spec after the missing one must still be validated: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("unreadable"), "{}", stderr(&out));
}

#[test]
fn invalid_spec_exits_one_not_two() {
    // Parseable JSON, but fails validation (no hops / grid 0×0).
    let bad = TempFile::with_content(
        "invalid.json",
        r#"{"name": "bad", "seed": 1,
            "grid": {"origin_lat": 0.0, "origin_lon": 0.0, "cols": 0, "rows": 0, "cell_km": 1.0},
            "density": {"core_col": 0.0, "core_row": 0.0, "peak": 100.0, "decay_cells": 1.0},
            "targets": {"kind": "projected", "floor_ms": 50.0, "gradient_ms": 1.0,
                        "hotspot_ms": 1.0, "hotspot": "A1"},
            "hops": [], "links": [], "as_relations": [],
            "ue": {"gateway": "gw"},
            "measurement": {"anchor": "gw", "reference_cell": "A1"}}"#,
    );
    for sub in ["run", "validate"] {
        let out = run(&[sub, bad.path()]);
        assert_eq!(code(&out), 1, "{sub} on an invalid spec");
        assert!(!stderr(&out).contains("USAGE"), "{sub}: validation failure is not a usage error");
    }
}

#[test]
fn unparseable_json_exits_one() {
    let bad = TempFile::with_content("unparseable.json", "{\"name\": ");
    let out = run(&["validate", bad.path()]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("invalid JSON"), "{}", stderr(&out));
}

#[test]
fn invalid_sweep_exits_one() {
    // Resolvable base, but the override path does not resolve in it.
    let sweep = TempFile::with_content(
        "sweep-bad-path.json",
        &format!(
            r#"{{"name": "bad-sweep", "base": "{}",
                "axes": [{{"kind": "override", "path": "$.campaign.cadence_s",
                           "values": [1.0]}}]}}"#,
            specs_dir().join("klagenfurt.json").display()
        ),
    );
    let out = run(&["sweep", sweep.path()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("$.axes[0].path"), "{err}");
    assert!(err.contains("cadence_s"), "{err}");
}

#[test]
fn valid_spec_validates_with_exit_zero() {
    let spec = specs_dir().join("klagenfurt.json");
    let out = run(&["validate", spec.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));
}

/// The committed transit-flap spec text, with one substring swapped — the
/// doctoring surface of the malformed-faults tests below.
fn doctored_flap(name: &str, from: &str, to: &str) -> TempFile {
    let text = std::fs::read_to_string(specs_dir().join("klagenfurt_flap.json"))
        .expect("committed flap spec");
    assert!(text.contains(from), "flap spec no longer contains {from:?}");
    TempFile::with_content(name, &text.replace(from, to))
}

/// A spec that validates but cannot route: every UE must reach every
/// measurement target through the AS relations, and there are none.
#[test]
fn unroutable_spec_exits_one_with_path() {
    let text = std::fs::read_to_string(specs_dir().join("megacity.json")).expect("megacity spec");
    let mut spec = ScenarioSpec::from_json(&text).expect("committed spec parses");
    spec.as_relations.clear();
    let bad = TempFile::with_content("unroutable.json", &spec.to_json());
    assert_eq!(code(&run(&["validate", bad.path()])), 0, "routing is checked at compile");
    let out = run(&["run", bad.path()]);
    assert_eq!(code(&out), 1, "an unroutable spec is invalid input, not a crash");
    let err = stderr(&out);
    assert!(err.contains("$.as_relations"), "{err}");
    assert!(err.contains("no route from A1 to target 0"), "{err}");
}

#[test]
fn fault_on_unknown_link_exits_one_with_path() {
    // Anchored on the fault's own `link` array — a bare hop-name swap
    // would rename the hop declaration too and stay valid.
    let bad = doctored_flap(
        "fault-unknown-link.json",
        "\"link\": [\n        \"cdn77-core-vie\"",
        "\"link\": [\n        \"no-such-hop\"",
    );
    let out = run(&["validate", bad.path()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("$.faults[0].link"), "{err}");
    assert!(err.contains("no-such-hop"), "{err}");
}

#[test]
fn fault_with_negative_failure_time_exits_one_with_path() {
    let bad = doctored_flap("fault-negative-at.json", "\"at_s\": 900.0", "\"at_s\": -1.0");
    for sub in ["run", "validate"] {
        let out = run(&[sub, bad.path()]);
        assert_eq!(code(&out), 1, "{sub} on a negative failure time");
        let err = stderr(&out);
        assert!(err.contains("$.faults[0].at_s"), "{sub}: {err}");
        assert!(err.contains("finite and non-negative"), "{sub}: {err}");
    }
}

#[test]
fn fault_with_nan_failure_time_exits_one_with_path() {
    // `nan` is not valid JSON, so a NaN-bearing spec dies in the parser
    // with exit 1 — same code, different message — while a spec-borne
    // `null` at_s is a decode error pointing at the faults array.
    let bad = doctored_flap("fault-nan-at.json", "\"at_s\": 900.0", "\"at_s\": nan");
    let out = run(&["validate", bad.path()]);
    assert_eq!(code(&out), 1);
    assert!(stderr(&out).contains("invalid JSON"), "{}", stderr(&out));

    let bad = doctored_flap("fault-null-at.json", "\"at_s\": 900.0", "\"at_s\": null");
    let out = run(&["validate", bad.path()]);
    assert_eq!(code(&out), 1);
    assert!(!stderr(&out).contains("USAGE"), "{}", stderr(&out));
}

#[test]
fn fault_recovering_before_failure_exits_one_with_path() {
    let bad = doctored_flap(
        "fault-early-recovery.json",
        "\"recover_at_s\": 2500.0",
        "\"recover_at_s\": 200.0",
    );
    let out = run(&["validate", bad.path()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("$.faults[0].recover_at_s"), "{err}");
    assert!(err.contains("after the failure"), "{err}");
}

#[test]
fn faults_on_the_analytic_backend_exit_one_with_path() {
    let bad =
        doctored_flap("fault-analytic.json", "\"backend\": \"event\"", "\"backend\": \"analytic\"");
    let out = run(&["run", bad.path()]);
    assert_eq!(code(&out), 1);
    let err = stderr(&out);
    assert!(err.contains("$.faults"), "{err}");
    assert!(err.contains("event"), "{err}");
}

const REPRO_FAULTS: &str = env!("CARGO_BIN_EXE_repro_faults");

#[test]
fn repro_faults_gate_failure_exits_one() {
    // An eternal outage from t = 0 leaves no untouched cell to certify
    // recovery against — the recovery gate must fail, not pass vacuously.
    let eternal = doctored_flap(
        "fault-eternal.json",
        "\"at_s\": 900.0,\n      \"recover_at_s\": 2500.0",
        "\"at_s\": 0.0,\n      \"recover_at_s\": null",
    );
    let out = Command::new(REPRO_FAULTS)
        .args(["--flap-spec", eternal.path(), "--passes", "1"])
        .output()
        .expect("repro_faults spawns");
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("no untouched cell"), "{err}");
    assert!(err.contains("convergence gate violation"), "{err}");
}

#[test]
fn repro_faults_rejects_invalid_flap_spec_as_usage_error() {
    let bad = doctored_flap("fault-bad-for-repro.json", "\"at_s\": 900.0", "\"at_s\": -1.0");
    let out = Command::new(REPRO_FAULTS)
        .args(["--flap-spec", bad.path()])
        .output()
        .expect("repro_faults spawns");
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("$.faults[0].at_s"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// Checkpointed sweeps: the kill/resume/merge contract through the binary.
// ---------------------------------------------------------------------------

/// A scratch directory holding a tiny sweep (klagenfurt base trimmed to one
/// pass, 2 cadences × 1 seed = 2 variants) plus room for checkpoint
/// stores, cleaned up on drop.
struct SweepDir(PathBuf);

impl SweepDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sixg-cli-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create sweep dir");
        let mut base = klagenfurt_spec().clone();
        base.campaign.passes = 1;
        std::fs::write(dir.join("base.json"), base.to_json()).expect("write base");
        std::fs::write(
            dir.join("sweep.json"),
            r#"{"name": "cli-torture", "base": "base.json",
                "axes": [{"kind": "override", "path": "$.campaign.sample_interval_s",
                           "values": [2.0, 4.0]},
                          {"kind": "seeds", "start": 7, "count": 1}]}"#,
        )
        .expect("write sweep");
        Self(dir)
    }

    fn sweep(&self) -> String {
        self.0.join("sweep.json").display().to_string()
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for SweepDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--kill-after` dies mid-run without a clean exit status (like a real
/// kill), and rerunning with the same store resumes into a report bitwise
/// identical to a never-killed in-memory run.
#[test]
fn sweep_checkpoint_resumes_bitwise_after_kill() {
    let d = SweepDir::new("kill-resume");
    let out = run(&["sweep", &d.sweep(), "--json", &d.path("clean.json")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    let out = run(&[
        "sweep",
        &d.sweep(),
        "--checkpoint",
        &d.path("store"),
        "--interval",
        "7",
        "--kill-after",
        "40",
    ]);
    // A killed run aborts: no exit code a script could mistake for success
    // (`code()` would panic here — the process dies by signal).
    assert!(!out.status.success(), "--kill-after must not exit cleanly");
    let err = stderr(&out);
    assert!(err.contains("killed at checkpoint cursor 40/"), "{err}");

    let out = run(&[
        "sweep",
        &d.sweep(),
        "--checkpoint",
        &d.path("store"),
        "--interval",
        "7",
        "--json",
        &d.path("resumed.json"),
    ]);
    assert_eq!(code(&out), 0, "resume must succeed: {}", stderr(&out));
    let clean = std::fs::read(d.path("clean.json")).expect("clean report");
    let resumed = std::fs::read(d.path("resumed.json")).expect("resumed report");
    assert_eq!(clean, resumed, "resumed report must be bitwise identical");
}

/// Two disjoint shard stores fold back into the in-memory report, byte
/// for byte, through `sixg-cli merge`.
#[test]
fn sweep_shard_merge_round_trips_bitwise() {
    let d = SweepDir::new("shard-merge");
    let out = run(&["sweep", &d.sweep(), "--json", &d.path("clean.json")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    for i in 0..2 {
        let shard = format!("{i}/2");
        let store = d.path(&format!("s{i}"));
        let out = run(&["sweep", &d.sweep(), "--checkpoint", &store, "--shard", &shard]);
        assert_eq!(code(&out), 0, "shard {i}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains(&format!("shard {i}/2 complete")), "{stdout}");
    }

    let out = run(&[
        "merge",
        &d.sweep(),
        "--store",
        &d.path("s0"),
        "--store",
        &d.path("s1"),
        "--json",
        &d.path("merged.json"),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let clean = std::fs::read(d.path("clean.json")).expect("clean report");
    let merged = std::fs::read(d.path("merged.json")).expect("merged report");
    assert_eq!(clean, merged, "merged report must be bitwise identical");
}

/// A truncated blob fails resume AND merge with exit 1 and the offending
/// file's path on stderr — corrupt stores are rejected, never repaired
/// silently or adopted partially.
#[test]
fn corrupt_store_exits_one_with_the_blob_path() {
    let d = SweepDir::new("corrupt");
    let out = run(&["sweep", &d.sweep(), "--checkpoint", &d.path("store")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    let blob = d.0.join("store").join("run_00001.blob");
    let bytes = std::fs::read(&blob).expect("spilled blob");
    std::fs::write(&blob, &bytes[..bytes.len() / 2]).expect("truncate blob");

    // Resume path: the completed store re-reads every blob.
    let out = run(&["sweep", &d.sweep(), "--checkpoint", &d.path("store")]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("run_00001.blob"), "error must name the file: {err}");
    assert!(!err.contains("USAGE"), "a corrupt store is not a usage error: {err}");

    // Merge path: same rejection, same anchoring.
    let out = run(&["merge", &d.sweep(), "--store", &d.path("store")]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("run_00001.blob"), "{}", stderr(&out));
}

/// A store written for a different sweep is rejected at the manifest with
/// exit 1 (spec-hash binding).
#[test]
fn foreign_store_exits_one_with_hash_mismatch() {
    let d = SweepDir::new("foreign");
    let out = run(&["sweep", &d.sweep(), "--checkpoint", &d.path("store")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));

    // Same axes, different cadence values ⇒ different content hash.
    std::fs::write(
        d.0.join("other.json"),
        r#"{"name": "cli-torture", "base": "base.json",
            "axes": [{"kind": "override", "path": "$.campaign.sample_interval_s",
                       "values": [1.0, 4.0]},
                      {"kind": "seeds", "start": 7, "count": 1}]}"#,
    )
    .expect("write other sweep");
    let out = run(&["sweep", &d.path("other.json"), "--checkpoint", &d.path("store")]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("spec hash mismatch"), "{err}");
    assert!(err.contains("manifest.json"), "{err}");
}

#[test]
fn checkpoint_flag_misuse_exits_two() {
    let d = SweepDir::new("usage");
    for args in [
        vec!["sweep", "SWEEP", "--shard", "0/2"],
        vec!["sweep", "SWEEP", "--kill-after", "10"],
        vec!["sweep", "SWEEP", "--interval", "64"],
        vec!["sweep", "SWEEP", "--checkpoint", "STORE", "--shard", "2/2"],
        vec!["sweep", "SWEEP", "--checkpoint", "STORE", "--shard", "zero/two"],
        vec!["sweep", "SWEEP", "--checkpoint", "STORE", "--interval", "0"],
        vec!["merge", "SWEEP"],
        vec!["merge", "--store", "STORE"],
    ] {
        let store = d.path("store-usage");
        let sweep_path = d.sweep();
        let resolved: Vec<&str> = args
            .iter()
            .map(|a| match *a {
                "SWEEP" => sweep_path.as_str(),
                "STORE" => store.as_str(),
                other => other,
            })
            .collect();
        let shown = args.join(" ");
        let out = run(&resolved);
        assert_eq!(code(&out), 2, "`{shown}` must be a usage error: {}", stderr(&out));
        assert!(stderr(&out).contains("USAGE"), "`{shown}`: {}", stderr(&out));
        // Usage errors must fire before any work: no store may appear.
        assert!(
            !Path::new(&store).exists(),
            "`{shown}` must not create a store (sweep file: {sweep_path})"
        );
    }
}

/// A `--checkpoint` with no value is a usage error, not an in-memory sweep.
#[test]
fn sweep_checkpoint_without_a_value_exits_two() {
    let d = SweepDir::new("no-value");
    let out = run(&["sweep", &d.sweep(), "--checkpoint"]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--checkpoint needs a value"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

/// The in-memory cap error is a *validation* failure (exit 1) that names
/// the `--checkpoint` escape hatch.
#[test]
fn over_cap_sweep_exits_one_naming_checkpoint() {
    let d = SweepDir::new("cap");
    std::fs::write(
        d.0.join("mega.json"),
        r#"{"name": "over-cap", "base": "base.json",
            "axes": [{"kind": "seeds", "start": 0, "count": 5000}]}"#,
    )
    .expect("write over-cap sweep");
    let out = run(&["sweep", &d.path("mega.json")]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--checkpoint"), "the cap error must name the escape hatch: {err}");
    assert!(!err.contains("USAGE"), "over-cap is not a usage error: {err}");
}
