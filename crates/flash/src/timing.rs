//! NAND operation latencies and bus bandwidth.

use checkin_sim::SimDuration;

/// Timing parameters of the NAND chips and the ONFI channel bus.
///
/// # Examples
///
/// ```
/// use checkin_flash::FlashTiming;
///
/// let t = FlashTiming::mlc();
/// assert!(t.t_program > t.t_read);
/// let xfer = t.transfer_time(4096);
/// assert!(xfer.as_nanos() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Array read time (tR): cell array to page register.
    pub t_read: SimDuration,
    /// Array program time (tPROG): page register to cells.
    pub t_program: SimDuration,
    /// Block erase time (tBER).
    pub t_erase: SimDuration,
    /// Program suspend latency: from a suspend command until the die can
    /// sense for a read; the resumed program repeats it as overhead.
    pub t_suspend: SimDuration,
    /// Channel bus bandwidth in bytes per second (ONFI transfer rate).
    pub bus_bytes_per_sec: u64,
}

impl FlashTiming {
    /// SLC-like timings: fast reads and programs.
    pub fn slc() -> Self {
        FlashTiming {
            t_read: SimDuration::from_micros(25),
            t_program: SimDuration::from_micros(200),
            t_erase: SimDuration::from_millis(2),
            t_suspend: SimDuration::from_micros(25),
            bus_bytes_per_sec: 800_000_000,
        }
    }

    /// MLC-like timings (the paper's configuration class).
    pub fn mlc() -> Self {
        FlashTiming {
            t_read: SimDuration::from_micros(45),
            t_program: SimDuration::from_micros(660),
            t_erase: SimDuration::from_micros(3500),
            t_suspend: SimDuration::from_micros(50),
            bus_bytes_per_sec: 800_000_000,
        }
    }

    /// TLC-like timings: slow programs, long erases.
    pub fn tlc() -> Self {
        FlashTiming {
            t_read: SimDuration::from_micros(78),
            t_program: SimDuration::from_micros(2200),
            t_erase: SimDuration::from_millis(5),
            t_suspend: SimDuration::from_micros(100),
            bus_bytes_per_sec: 800_000_000,
        }
    }

    /// Time to move `bytes` across the channel bus.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        debug_assert!(self.bus_bytes_per_sec > 0);
        let nanos = bytes.saturating_mul(1_000_000_000) / self.bus_bytes_per_sec;
        SimDuration::from_nanos(nanos.max(1))
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming::mlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_cell_density() {
        let (slc, mlc, tlc) = (FlashTiming::slc(), FlashTiming::mlc(), FlashTiming::tlc());
        assert!(slc.t_read < mlc.t_read && mlc.t_read < tlc.t_read);
        assert!(slc.t_program < mlc.t_program && mlc.t_program < tlc.t_program);
        assert!(slc.t_suspend < mlc.t_suspend && mlc.t_suspend < tlc.t_suspend);
        // A suspend plus a sense must beat waiting out a program.
        for t in [slc, mlc, tlc] {
            assert!(t.t_suspend + t.t_read < t.t_program);
        }
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = FlashTiming::mlc();
        let one = t.transfer_time(4096);
        let two = t.transfer_time(8192);
        assert_eq!(two.as_nanos(), one.as_nanos() * 2);
        // 4 KiB at 800 MB/s = 5.12 us
        assert_eq!(one.as_nanos(), 5_120);
    }

    #[test]
    fn transfer_time_never_zero() {
        let t = FlashTiming::mlc();
        assert!(t.transfer_time(0).as_nanos() >= 1);
    }

    #[test]
    fn default_is_mlc() {
        assert_eq!(FlashTiming::default(), FlashTiming::mlc());
    }
}
