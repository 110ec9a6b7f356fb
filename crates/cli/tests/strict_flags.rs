//! The binary itself exits nonzero, with the offending flag on stderr,
//! for every command line the flag tables reject.

use std::process::Command;

#[test]
fn rejected_command_lines_exit_nonzero_naming_the_flag() {
    let serve = [
        "serve",
        "--db-dir",
        "db",
        "--trace",
        "t.swf",
        "--servers",
        "8",
    ];
    let cases: [(&[&str], &str); 8] = [
        (&["--overlaod-cut", "0.3"], "--overlaod-cut"),
        (&["--cache", "64"], "--cache was removed"),
        (&["--journal-dir"], "--journal-dir"),
        (&["--paced", "1"], "--paced"),
        (
            &["--checkpoint-every", "16"],
            "--checkpoint-every needs --journal-dir",
        ),
        (&["--scrub"], "--scrub needs --journal-dir"),
        (
            &["--metrics-format", "json"],
            "--metrics-format needs --metrics-out",
        ),
        (&["--kill-after", "5"], "--kill-after needs --kill-shard"),
    ];
    let mut argvs: Vec<(Vec<&str>, &str)> = cases
        .iter()
        .map(|(extra, expect)| (serve.iter().chain(*extra).copied().collect(), *expect))
        .collect();
    let mut replay = serve.to_vec();
    replay[0] = "replay-online";
    replay.extend(["--kill-shard", "0"]);
    argvs.push((replay, "--kill-shard"));
    // A journal records neither worker kills nor lookup faults, so
    // `recover` (which always has one) does not take them.
    for (chaos, expect) in [
        (["--kill-after", "5"], "unknown flag --kill-after"),
        (["--kill-shard", "0"], "unknown flag --kill-shard"),
        (["--fault-rate", "0.5"], "unknown flag --fault-rate"),
    ] {
        let mut recover = serve.to_vec();
        recover[0] = "recover";
        recover.extend(["--journal-dir", "j"]);
        recover.extend(chaos);
        argvs.push((recover, expect));
    }
    argvs.push((
        vec!["scenario", "check", "s.eavm", "--fault-rat", "0.3"],
        "--fault-rat",
    ));
    for (argv, expect) in argvs {
        let out = Command::new(env!("CARGO_BIN_EXE_eavm-cli"))
            .args(&argv)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} exited 0");
        assert!(stderr.contains(expect), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed to stdout");
    }
}
