//! An fio-like calibrator: replays the paper's device-characterization
//! workloads (§III-A) against the model and reports the achieved envelope.
//!
//! The three workloads mirror the paper's fio runs on the Samsung 990 Pro:
//!
//! 1. 4 KiB random read, one CPU core, deep queue → single-core IOPS
//!    (paper: 324.3 KIOPS, CPU-bound),
//! 2. 4 KiB random read, 64 concurrent requests over four cores → peak IOPS
//!    (paper: 1.3 MIOPS),
//! 3. 128 KiB sequential read, 32 concurrent threads → peak bandwidth
//!    (paper: 7.2 GiB/s).

use crate::model::{DeviceSim, SsdModel};

/// Runs the calibration workloads against an [`SsdModel`].
#[derive(Debug, Clone)]
pub struct Calibrator {
    model: SsdModel,
    /// Simulated duration of each workload, µs.
    duration_us: f64,
}

impl Calibrator {
    /// Creates a calibrator with a 1-second simulated run per workload.
    pub fn new(model: SsdModel) -> Calibrator {
        Calibrator {
            model,
            duration_us: 1e6,
        }
    }

    /// Overrides the per-workload simulated duration.
    pub fn with_duration_us(mut self, duration_us: f64) -> Calibrator {
        self.duration_us = duration_us.max(1e3);
        self
    }

    /// Runs all three workloads.
    pub fn run(&self) -> CalibrationReport {
        let qd1 = self.closed_loop(1, 1, 4096);
        let single_core = self.closed_loop(1, 64, 4096);
        let four_core = self.closed_loop(4, 64, 4096);
        let seq = self.closed_loop(32, 32, 128 * 1024);
        CalibrationReport {
            model: self.model,
            qd1_latency_us: self.duration_us / qd1.max(1.0) * 1.0,
            qd1_iops: qd1 / (self.duration_us / 1e6),
            single_core_iops: single_core / (self.duration_us / 1e6),
            peak_iops: four_core / (self.duration_us / 1e6),
            seq_bandwidth_gib: (seq * 128.0 * 1024.0)
                / (self.duration_us / 1e6)
                / f64::from(1u32 << 30),
        }
    }

    /// Simulates `cores` CPU cores, each keeping `qd_per_core` requests of
    /// `len` bytes in flight. Submission costs `submit_cpu_us` of the core's
    /// time, so a core can issue at most `1/submit_cpu_us` requests per µs.
    /// Returns completed requests within the duration.
    fn closed_loop(&self, cores: usize, qd_per_core: usize, len: u32) -> f64 {
        let mut dev = DeviceSim::new(self.model);
        // Per-core CPU availability and the in-flight completion times.
        let mut cpu_free = vec![0.0f64; cores];
        // (completion_time, core) for each in-flight request.
        let mut inflight: Vec<(f64, usize)> = Vec::with_capacity(cores * qd_per_core);
        for (core, free_at) in cpu_free.iter_mut().enumerate() {
            for _ in 0..qd_per_core {
                let submit_at = *free_at;
                *free_at += self.model.submit_cpu_us;
                inflight.push((dev.schedule(submit_at, len), core));
            }
        }
        let mut completed = 0f64;
        // Pop the earliest completion (linear scan: queue depths here are
        // small, and determinism matters more than asymptotics).
        while let Some((i, &(t, core))) = inflight
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        {
            if t > self.duration_us {
                break;
            }
            completed += 1.0;
            // The core resubmits as soon as it has CPU time for it.
            let submit_at = t.max(cpu_free[core]);
            cpu_free[core] = submit_at + self.model.submit_cpu_us;
            inflight[i] = (dev.schedule(submit_at, len), core);
        }
        completed
    }
}

/// The achieved device envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// The model calibrated.
    pub model: SsdModel,
    /// Mean latency at queue depth 1, µs.
    pub qd1_latency_us: f64,
    /// IOPS at queue depth 1.
    pub qd1_iops: f64,
    /// 4 KiB random-read IOPS on one core (deep queue).
    pub single_core_iops: f64,
    /// 4 KiB random-read IOPS over four cores at QD 64.
    pub peak_iops: f64,
    /// 128 KiB sequential-read bandwidth, GiB/s.
    pub seq_bandwidth_gib: f64,
}

impl std::fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "device envelope (fio-equivalent workloads)")?;
        writeln!(
            f,
            "  4KiB randread QD1      : {:>10.1} us/op",
            self.qd1_latency_us
        )?;
        writeln!(
            f,
            "  4KiB randread 1 core   : {:>10.1} KIOPS",
            self.single_core_iops / 1e3
        )?;
        writeln!(
            f,
            "  4KiB randread 4 cores  : {:>10.2} MIOPS",
            self.peak_iops / 1e6
        )?;
        write!(
            f,
            "  128KiB seqread 32 thr  : {:>10.2} GiB/s",
            self.seq_bandwidth_gib
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let report = Calibrator::new(SsdModel::samsung_990_pro()).run();
        // Paper: 324.3 KIOPS single core.
        assert!(
            (280e3..340e3).contains(&report.single_core_iops),
            "single-core IOPS {}",
            report.single_core_iops
        );
        // Paper: 1.3 MIOPS with 64 concurrent requests on four cores.
        assert!(
            (1.15e6..1.45e6).contains(&report.peak_iops),
            "peak IOPS {}",
            report.peak_iops
        );
        // Paper: 7.2 GiB/s sequential.
        assert!(
            (6.5..7.4).contains(&report.seq_bandwidth_gib),
            "seq bandwidth {}",
            report.seq_bandwidth_gib
        );
    }

    #[test]
    fn qd1_latency_is_tens_of_microseconds() {
        let report = Calibrator::new(SsdModel::samsung_990_pro()).run();
        assert!(
            (40.0..90.0).contains(&report.qd1_latency_us),
            "QD1 latency {}",
            report.qd1_latency_us
        );
    }

    #[test]
    fn sata_is_slower_than_nvme() {
        let nvme = Calibrator::new(SsdModel::samsung_990_pro()).run();
        let sata = Calibrator::new(SsdModel::sata_ssd()).run();
        assert!(sata.peak_iops < nvme.peak_iops / 4.0);
        assert!(sata.seq_bandwidth_gib < 1.0);
    }

    #[test]
    fn display_is_nonempty() {
        let report = Calibrator::new(SsdModel::samsung_990_pro()).run();
        let text = report.to_string();
        assert!(text.contains("GiB/s"));
        assert!(text.contains("MIOPS"));
    }
}
