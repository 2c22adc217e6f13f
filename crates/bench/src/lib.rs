//! Paper-shape scaling curves, and the fixtures they share.
//!
//! The repository has **one** benchmark system, split by one rule:
//!
//! * anything end-to-end, or per-layer *on a workload* (stage times,
//!   cache ratios, admission, settlement batching, lane efficiency,
//!   restart), is a named metric of the standalone `benchmark/` package
//!   that `BENCHMARK.json` declares — it judges every claim;
//! * this crate keeps only what no workload can show: how a cost
//!   *scales* with a parameter the paper's claims are about
//!   (`snark_succinctness` E1, `recursion` E2, `wcert_verification` E3,
//!   `commitment_tree` E4, `mst` E5, `consensus` E7, `primitives` E14,
//!   `ablation_parallel` §5.4.1, `crosschain_routing`; criterion prints
//!   ns/iter), plus `tests/noop_overhead.rs`.
//!
//! Two curves are worth a committed record: `proof_aggregation` (1 → 256
//! certificates a block) and `indexer` (10⁶ UTXOs / 10⁵ pending
//! transfers). Only they write a file, both through [`write_report`]
//! (`make bench-smoke` regenerates them).

use std::process::Command;

use zendoo_core::certificate::{wcert_public_inputs, WcertSysData, WithdrawalCertificate};
use zendoo_core::ids::{Address, Amount, SidechainId};
use zendoo_core::proofdata::ProofData;
use zendoo_core::transfer::BackwardTransfer;
use zendoo_primitives::digest::Digest32;
use zendoo_snark::backend::{prove, setup_deterministic, Proof, ProvingKey, VerifyingKey};
use zendoo_snark::circuit::{Circuit, Unsatisfied};
use zendoo_snark::inputs::PublicInputs;

/// A permissive circuit for benches that measure everything *around*
/// the circuit (certificate plumbing, quality rules, sysdata assembly).
pub struct AcceptAll(pub &'static str);

impl Circuit for AcceptAll {
    type Witness = ();

    fn id(&self) -> Digest32 {
        Digest32::hash_tagged("bench/accept-all", &[self.0.as_bytes()])
    }

    fn check(&self, _: &PublicInputs, _: &()) -> Result<(), Unsatisfied> {
        Ok(())
    }
}

/// Deterministic backward-transfer list of the given size.
pub fn bt_list(n: usize) -> Vec<BackwardTransfer> {
    (0..n)
        .map(|i| BackwardTransfer {
            receiver: Address::from_label(&format!("receiver-{i}")),
            amount: Amount::from_units(i as u64 + 1),
        })
        .collect()
}

/// Builds a certificate with `n` backward transfers plus a valid proof
/// under the [`AcceptAll`] circuit, returning everything a verifier
/// needs.
pub fn snark_certificate(
    n: usize,
) -> (
    WithdrawalCertificate,
    VerifyingKey,
    ProvingKey,
    Digest32,
    Digest32,
) {
    let circuit = AcceptAll("wcert");
    let (pk, vk) = setup_deterministic(&circuit, b"bench");
    let prev_end = Digest32::hash_bytes(b"prev-end");
    let epoch_end = Digest32::hash_bytes(b"epoch-end");
    let mut cert = WithdrawalCertificate {
        sidechain_id: SidechainId::from_label("bench-sc"),
        epoch_id: 0,
        quality: 1,
        bt_list: bt_list(n),
        proofdata: ProofData::empty(),
        proof: Proof::from_bytes(&[0u8; 65]).expect("placeholder"),
    };
    let sysdata = WcertSysData::for_certificate(&cert, prev_end, epoch_end);
    let inputs = wcert_public_inputs(&sysdata, &cert.proofdata.merkle_root());
    cert.proof = prove(&pk, &circuit, &inputs, &()).expect("accept-all proves");
    (cert, vk, pk, prev_end, epoch_end)
}

/// Cores available to this process (`host_cores` in every report).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `git describe` of HEAD where the bench runs: the abbreviated commit,
/// `-dirty` appended when the working tree differs from it (a report is
/// necessarily produced before the commit that carries it exists).
fn git_rev() -> String {
    Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=12",
            "--exclude=*",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_owned())
}

/// The one reporter: writes `BENCH_<bench>.json` at the workspace root
/// with where the numbers come from (`host_cores`, `git_rev`), at what
/// size (`scale`) and what was measured (`results`). `scale` and
/// `results` are JSON values the bench formats itself.
///
/// # Panics
///
/// When the file cannot be written — a bench whose record is lost has
/// failed.
pub fn write_report(bench: &str, scale: &str, results: &str) {
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host_cores\": {},\n  \"git_rev\": \"{}\",\n  \"scale\": {scale},\n  \"results\": {results}\n}}\n",
        host_cores(),
        git_rev(),
    );
    let file = format!("BENCH_{bench}.json");
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
    println!("{bench}/report written to {file}");
}
