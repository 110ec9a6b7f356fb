//! The binary refuses to trust a journal it cannot replay exactly:
//! `serve` rejects a journal combined with faults no frame records, and
//! `recover` exits nonzero, naming the frame, when re-execution does not
//! reproduce what the journal holds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use eavm_durability::{read_frames, wal_path, PlacementRec, Wal, WalRecord};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eavm-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn untrustworthy_journals_exit_nonzero() {
    let dir: PathBuf = std::env::temp_dir().join(format!("eavm-cli-trust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (db, trace, journal) = (dir.join("db"), dir.join("t.swf"), dir.join("journal"));
    assert!(cli(&["build-db", "--out-dir", path(&db), "--exact"])
        .status
        .success());
    assert!(cli(&[
        "gen-trace",
        "--out",
        path(&trace),
        "--jobs",
        "60",
        "--seed",
        "3"
    ])
    .status
    .success());
    let serve = |extra: &[&str]| {
        let mut argv = vec![
            "serve",
            "--db-dir",
            path(&db),
            "--trace",
            path(&trace),
            "--servers",
            "6",
            "--shards",
            "2",
            "--journal-dir",
            path(&journal),
        ];
        argv.extend(extra);
        cli(&argv)
    };

    for (extra, why) in [
        (&["--kill-shard", "0"][..], "worker kills"),
        (&["--fault-rate", "0.5"][..], "lookup faults"),
    ] {
        let out = serve(extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?} with a journal exited 0");
        assert!(stderr.contains(why), "{extra:?}: {stderr}");
    }

    // A clean paced journal, then one admission moved onto another
    // server with its CRC kept valid, and no snapshot to skip past it.
    assert!(serve(&["--paced"]).status.success());
    let (mut payloads, _) = read_frames(&wal_path(&journal)).expect("wal");
    let index = payloads
        .iter()
        .position(|p| matches!(WalRecord::decode(p), Ok(WalRecord::Admitted { .. })))
        .expect("an admission frame");
    if let Ok(WalRecord::Admitted {
        ticket,
        shard,
        placements,
    }) = WalRecord::decode(&payloads[index])
    {
        let moved = placements
            .iter()
            .map(|p| PlacementRec {
                server: (p.server + 1) % 6,
                ..*p
            })
            .collect();
        payloads[index] = WalRecord::Admitted {
            ticket,
            shard,
            placements: moved,
        }
        .encode();
    }
    for entry in std::fs::read_dir(&journal).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    let (mut wal, _) = Wal::open(&wal_path(&journal)).expect("wal");
    for payload in &payloads {
        wal.append(payload).expect("append");
    }
    wal.sync().expect("sync");
    drop(wal);

    let out = cli(&[
        "recover",
        "--db-dir",
        path(&db),
        "--trace",
        path(&trace),
        "--servers",
        "6",
        "--shards",
        "2",
        "--journal-dir",
        path(&journal),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "recover accepted a tampered journal");
    assert!(
        stderr.contains(&format!("WAL frame {index}:")),
        "frame {index} not named: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
