//! One-second windows of the timed phase, the choice of the windows the
//! end-to-end metrics are computed over, and the per-window statistics.
//!
//! The host is shared. The hypervisor sometimes runs other guests on
//! this guest's CPUs ("steal"), and a request loop whose client and
//! daemon threads wake each other across the two CPUs loses far more
//! than the stolen share: 5% steal costs `serve_mix` 20–30% of its
//! throughput. Windows with steal measure the neighbours, not the
//! program, so the metrics leave them out while enough of the run
//! remains. Other guests' load also switches this guest between a fast
//! and a slow speed every few seconds, so throughput and median latency
//! are taken per window and reported at the level nine windows in ten
//! sustain, which a run's share of fast seconds leaves in place as long
//! as a tenth of the run is slow.

use crate::host::{steal_fraction, CpuTimes};
use crate::stats::{median, quantile_sorted};

/// Window length in seconds.
pub const WINDOW_S: f64 = 1.0;
/// Most steal a window may show and still count as quiet.
pub const STEAL_MAX: f64 = 0.02;
/// Per-window latencies are reported at this per-mille quantile over
/// windows, and throughputs at its complement: the level sustained in
/// nine seconds out of ten.
pub const SLOW_PM: u32 = 900;

/// One window of untraced ops.
#[derive(Default)]
pub struct Window {
    /// Wall time the window covered.
    pub secs: f64,
    /// Ops completed.
    pub ops: u64,
    /// Work items those ops completed.
    pub items: u64,
    /// Op latencies, nanoseconds.
    pub lat: Vec<f64>,
    /// Share of the host's CPU time stolen during the window (0 when
    /// `/proc/stat` is unreadable).
    pub steal: f64,
    /// Seconds taken by the set-up that ended the window, if one did.
    pub setup: Option<f64>,
}

impl Window {
    /// Closes a window that began at CPU reading `before`.
    pub fn close(&mut self, secs: f64, before: Option<CpuTimes>, after: Option<CpuTimes>) {
        self.secs = secs;
        self.steal = match (before, after) {
            (Some(a), Some(b)) => steal_fraction(a, b),
            _ => 0.0,
        };
    }

    /// Appends the ops of a short trailing window that covered `secs`.
    pub fn absorb(&mut self, mut tail: Window, secs: f64) {
        self.secs += secs;
        self.ops += tail.ops;
        self.items += tail.items;
        self.lat.append(&mut tail.lat);
    }
}

/// The `level_pm` per-mille quantile, over `windows`, of a per-window
/// value: for example the throughput sustained in nine seconds out of
/// ten (`level_pm = 100` of ops per second).
pub fn across(windows: &[&Window], level_pm: u32, value: impl Fn(&Window) -> f64) -> f64 {
    let mut v: Vec<f64> = windows.iter().map(|w| value(w)).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, level_pm)
}

/// A window's median op latency, nanoseconds.
pub fn median_latency(w: &Window) -> f64 {
    median(&w.lat)
}

/// The windows to compute the metrics over: every quiet window (steal
/// at most [`STEAL_MAX`]) when they cover at least half of the run's
/// time, else the least-stolen windows that do.
pub fn quiet_windows(ws: &[Window]) -> Vec<&Window> {
    let total: f64 = ws.iter().map(|w| w.secs).sum();
    let quiet: Vec<&Window> = ws.iter().filter(|w| w.steal <= STEAL_MAX).collect();
    if quiet.iter().map(|w| w.secs).sum::<f64>() * 2.0 >= total {
        return quiet;
    }
    let mut by_steal: Vec<&Window> = ws.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let mut kept = Vec::new();
    let mut covered = 0.0;
    for w in by_steal {
        if covered * 2.0 >= total {
            break;
        }
        covered += w.secs;
        kept.push(w);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(secs: f64, steal: f64) -> Window {
        Window {
            secs,
            steal,
            ..Window::default()
        }
    }

    #[test]
    fn keeps_every_quiet_window_when_they_cover_half() {
        let ws = [w(1.0, 0.0), w(1.0, 0.10), w(1.0, 0.01), w(1.0, 0.3)];
        let kept: Vec<f64> = quiet_windows(&ws).iter().map(|w| w.steal).collect();
        assert_eq!(kept, vec![0.0, 0.01]);
    }

    #[test]
    fn falls_back_to_the_least_stolen_half() {
        let ws = [
            w(1.0, 0.05),
            w(1.0, 0.10),
            w(1.0, 0.01),
            w(1.0, 0.3),
            w(0.2, 0.04),
        ];
        let kept: Vec<f64> = quiet_windows(&ws).iter().map(|w| w.steal).collect();
        assert_eq!(kept, vec![0.01, 0.04, 0.05]);
        let all_quiet = [w(1.0, 0.0), w(1.0, 0.0)];
        assert_eq!(quiet_windows(&all_quiet).len(), 2);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn quantiles_across_windows() {
        let ws: Vec<Window> = (1..=4)
            .map(|k| Window {
                secs: 1.0,
                ops: k * 10,
                lat: vec![k as f64, 2.0 * k as f64, 3.0 * k as f64],
                ..Window::default()
            })
            .collect();
        let refs: Vec<&Window> = ws.iter().collect();
        assert_eq!(across(&refs, 250, |w| w.ops as f64 / w.secs), 10.0);
        assert_eq!(across(&refs, 750, median_latency), 6.0);
    }

    #[test]
    fn close_measures_steal_between_readings() {
        let mut win = Window::default();
        let a = CpuTimes {
            steal: 0,
            total: 100,
        };
        let b = CpuTimes {
            steal: 5,
            total: 300,
        };
        win.close(1.0, Some(a), Some(b));
        assert_eq!((win.secs, win.steal), (1.0, 0.025));
        win.close(1.0, None, Some(b));
        assert_eq!(win.steal, 0.0);
    }
}
