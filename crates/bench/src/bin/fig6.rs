//! Reproduces **Fig. 6** — remaining battery vs. blocks mined, PoW vs PoS.
//!
//! Paper setting: a Samsung Galaxy S8 mines blocks for 84 minutes with PoW
//! at difficulty "4 zeros at the beginning of the block hash" (~25 s per
//! block) and separately with the proposed PoS tuned to the same 25 s
//! average block time. The paper reports PoW consuming >50 % battery over
//! 84 minutes (~4 blocks per 1 %) and PoS ~11 blocks per 1 % — the "64 %
//! less battery" headline.
//!
//! We substitute the phone with the calibrated Galaxy-S8 energy model
//! (`edgechain-energy`): PoW really searches SHA-256 nonces and charges
//! per evaluated hash; PoS charges one target check per second. The
//! printed series is the figure's two curves.
//!
//! `cargo run --release -p edgechain-bench --bin fig6`
//! (`--minutes N` to change the 84-minute horizon).

use edgechain_bench::parse_options;
use edgechain_core::pos::{run_round, Candidate};
use edgechain_core::pow::{mine, Difficulty};
use edgechain_core::Identity;
use edgechain_crypto::sha256;
use edgechain_energy::{Battery, DeviceProfile};

struct Sample {
    blocks: u64,
    battery_percent: f64,
}

/// PoW run: actually search nonces at the paper's difficulty 4 (expected
/// 65536 hashes ≈ 25 s of phone hashing), charging per real attempt.
fn run_pow(minutes: u64, profile: &DeviceProfile) -> Vec<Sample> {
    let mut battery = Battery::full(profile);
    let mut samples = vec![Sample {
        blocks: 0,
        battery_percent: 100.0,
    }];
    let mut prev = sha256(b"fig6-pow-genesis");
    let mut elapsed_secs = 0.0;
    let mut blocks: u64 = 0;
    while elapsed_secs < (minutes * 60) as f64 && !battery.is_empty() {
        let header = [prev.as_bytes().as_slice(), &blocks.to_be_bytes()].concat();
        let sol = mine(&header, Difficulty::PAPER, 0, 1 << 24)
            .expect("difficulty 4 found within 16M attempts whp");
        battery.consume(profile.pow_hash_energy * sol.attempts as f64);
        // The paper's observed pace: ~25 s per block at this difficulty.
        elapsed_secs += 25.0 * sol.attempts as f64 / Difficulty::PAPER.expected_attempts() as f64;
        blocks += 1;
        prev = sol.hash;
        samples.push(Sample {
            blocks,
            battery_percent: battery.percent(),
        });
    }
    samples
}

/// PoS run: same 25 s expected block time, one target check per second.
fn run_pos(minutes: u64, profile: &DeviceProfile) -> Vec<Sample> {
    let mut battery = Battery::full(profile);
    let mut samples = vec![Sample {
        blocks: 0,
        battery_percent: 100.0,
    }];
    let candidates: Vec<Candidate> = (0..8)
        .map(|i| Candidate {
            account: Identity::from_seed(i).account(),
            tokens: 2,
            stored_items: 5,
        })
        .collect();
    let mut prev = sha256(b"fig6-pos-genesis");
    let mut elapsed_secs = 0u64;
    let mut blocks = 0;
    while elapsed_secs < minutes * 60 && !battery.is_empty() {
        let out = run_round(&prev, &candidates, 25);
        battery.consume(profile.pos_check_energy * out.delay_secs as f64);
        elapsed_secs += out.delay_secs;
        blocks += 1;
        prev = out.new_pos_hash;
        samples.push(Sample {
            blocks,
            battery_percent: battery.percent(),
        });
    }
    samples
}

fn print_series(name: &str, samples: &[Sample]) {
    println!("\n{name}: blocks mined → remaining battery [%]");
    // Print every ~10th sample to keep the series readable.
    let step = (samples.len() / 20).max(1);
    for s in samples.iter().step_by(step) {
        let bar = "#".repeat((s.battery_percent / 2.0) as usize);
        println!(
            "  {:>4} blocks  {:>6.2}%  {bar}",
            s.blocks, s.battery_percent
        );
    }
    let last = samples.last().unwrap();
    println!(
        "  final: {} blocks, {:.2}% remaining",
        last.blocks, last.battery_percent
    );
}

fn main() {
    let opts = parse_options(84, 1);
    let profile = DeviceProfile::galaxy_s8();
    println!(
        "Fig. 6 reproduction — {} on a {}-minute horizon, 25 s target block time",
        profile.name, opts.minutes
    );

    let pow = run_pow(opts.minutes, &profile);
    let pos = run_pos(opts.minutes, &profile);
    print_series("PoW (difficulty: 4 hex zeros, real nonce search)", &pow);
    print_series("PoS (proposed, once-per-second target checks)", &pos);

    let pow_last = pow.last().unwrap();
    let pos_last = pos.last().unwrap();
    let pow_per_pct = pow_last.blocks as f64 / (100.0 - pow_last.battery_percent);
    let pos_per_pct = pos_last.blocks as f64 / (100.0 - pos_last.battery_percent);
    println!("\nsummary:");
    println!("  PoW: {pow_per_pct:.1} blocks per 1% battery (paper ≈ 4)");
    println!("  PoS: {pos_per_pct:.1} blocks per 1% battery (paper ≈ 11)");
    let pow_per_block = (100.0 - pow_last.battery_percent) / pow_last.blocks as f64;
    let pos_per_block = (100.0 - pos_last.battery_percent) / pos_last.blocks as f64;
    println!(
        "  energy per block: PoS uses {:.0}% less than PoW (paper headline: 64% less)",
        100.0 * (1.0 - pos_per_block / pow_per_block)
    );
}
