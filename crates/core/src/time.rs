//! Time-slot arithmetic shared by the indexes and query processors.
//!
//! # Cross-midnight semantics
//!
//! The indexes treat the day as **circular**: `StIndex` and `ConIndex` both
//! reduce slot numbers modulo the number of slots per day, so a query window
//! that extends past midnight wraps onto the early slots of the *same*
//! indexed dates. [`slots_overlapping`] implements exactly that semantics —
//! a window `[23:55, 00:05)` covers the last slot of the day **and** slot 0.
//! The verifiers read their windows through this function, so the bounding
//! phase (which has always wrapped) and the verification phase agree on
//! which slots a cross-midnight window touches.

/// Index of the Δt slot containing `time_s` (seconds after midnight).
#[inline]
pub fn slot_of(time_s: u32, slot_s: u32) -> u32 {
    debug_assert!(slot_s > 0);
    (time_s % streach_traj::SECONDS_PER_DAY) / slot_s
}

/// Iterator over the slot indices covered by a (possibly cross-midnight)
/// time window. See [`slots_overlapping`].
#[derive(Debug, Clone)]
pub struct SlotWindow {
    /// Absolute second (may exceed one day) at which the next slot to yield
    /// begins or, for the first slot, any second inside it.
    cursor: u32,
    /// Number of slots left to yield.
    remaining: u32,
    slot_s: u32,
}

impl Iterator for SlotWindow {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let slot = slot_of(self.cursor, self.slot_s);
        // Advance to the start of the next slot. Slot grids restart at each
        // midnight, so when Δt does not divide the day the last slot of a
        // day is short and the next slot starts exactly at midnight.
        let day_pos = self.cursor % streach_traj::SECONDS_PER_DAY;
        let next_in_day = ((day_pos / self.slot_s) + 1) * self.slot_s;
        let advance = next_in_day.min(streach_traj::SECONDS_PER_DAY) - day_pos;
        self.cursor = self.cursor.saturating_add(advance);
        Some(slot)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for SlotWindow {}

/// All slot indices overlapping the half-open window `[start_s, end_s)`.
///
/// Windows extending past midnight **wrap** onto the beginning of the day,
/// matching the modular slot arithmetic of `StIndex::lookup` and the
/// speed statistics' rows: a 10-minute window starting at 23:55 yields the
/// day's last slot followed by slot 0. At most one full day of slots is
/// yielded (longer windows already cover every slot), and each slot appears
/// at most once.
pub fn slots_overlapping(start_s: u32, end_s: u32, slot_s: u32) -> SlotWindow {
    debug_assert!(slot_s > 0);
    let day = streach_traj::SECONDS_PER_DAY;
    if end_s <= start_s {
        return SlotWindow {
            cursor: 0,
            remaining: 0,
            slot_s,
        };
    }
    // Normalize to a start inside the first day; cap the duration at one
    // day (a longer window cannot cover more slots than exist).
    let duration = (end_s - start_s).min(day);
    let start_s = start_s % day;
    let end_s = start_s + duration;

    // Slots touched before midnight ...
    let first_day_end = end_s.min(day);
    let count_day1 = slot_of(first_day_end - 1, slot_s) - slot_of(start_s, slot_s) + 1;
    // ... plus slots touched after wrapping (window `[0, end_s - day)`).
    let count_day2 = if end_s > day {
        (end_s - day).div_ceil(slot_s)
    } else {
        0
    };
    let slots_per_day = day.div_ceil(slot_s);
    SlotWindow {
        cursor: start_s,
        remaining: (count_day1 + count_day2).min(slots_per_day),
        slot_s,
    }
}

/// Formats a time of day as `HH:MM`.
pub fn format_hhmm(time_s: u32) -> String {
    let t = time_s % streach_traj::SECONDS_PER_DAY;
    format!("{:02}:{:02}", t / 3600, (t % 3600) / 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_of_basic() {
        assert_eq!(slot_of(0, 300), 0);
        assert_eq!(slot_of(299, 300), 0);
        assert_eq!(slot_of(300, 300), 1);
        assert_eq!(slot_of(11 * 3600, 300), 132);
        // Times past midnight wrap.
        assert_eq!(slot_of(streach_traj::SECONDS_PER_DAY + 30, 300), 0);
    }

    #[test]
    fn slots_overlapping_windows() {
        let collect = |s, e, dt| slots_overlapping(s, e, dt).collect::<Vec<u32>>();
        // A window exactly one slot long.
        assert_eq!(collect(600, 900, 300), vec![2]);
        // A window spanning two slots.
        assert_eq!(collect(650, 950, 300), vec![2, 3]);
        // A 10-minute query at 11:00 with 5-minute slots.
        assert_eq!(collect(11 * 3600, 11 * 3600 + 600, 300), vec![132, 133]);
        // Empty and degenerate windows.
        assert!(collect(500, 500, 300).is_empty());
        assert!(collect(900, 600, 300).is_empty());
    }

    #[test]
    fn slots_overlapping_wraps_past_midnight() {
        let collect = |s, e, dt| slots_overlapping(s, e, dt).collect::<Vec<u32>>();
        // 23:55 + 10 minutes: the day's last slot and slot 0.
        let s = 23 * 3600 + 55 * 60;
        assert_eq!(collect(s, s + 600, 300), vec![287, 0]);
        // 23:00 to 25:00 covers the last 12 slots and the first 12.
        let slots = collect(23 * 3600, 25 * 3600, 300);
        assert_eq!(slots.len(), 24);
        assert_eq!(slots[0], 276);
        assert_eq!(slots[11], 287);
        assert_eq!(slots[12], 0);
        assert_eq!(slots[23], 11);
        // Ending exactly at midnight does not wrap.
        assert_eq!(
            collect(23 * 3600 + 55 * 60, streach_traj::SECONDS_PER_DAY, 300),
            vec![287]
        );
    }

    #[test]
    fn slots_overlapping_caps_at_one_day() {
        // A window longer than a day covers every slot exactly once.
        let slots: Vec<u32> = slots_overlapping(600, 600 + 3 * 86_400, 300).collect();
        assert_eq!(slots.len(), 288);
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 288, "every slot exactly once");
        assert_eq!(
            slots[0], 2,
            "starts at the slot containing the window start"
        );
    }

    #[test]
    fn slots_overlapping_non_divisible_slot_length() {
        // Δt = 7 min does not divide the day: the last slot (205) is short
        // and the grid restarts at midnight.
        let slot_s = 7 * 60;
        let day = streach_traj::SECONDS_PER_DAY;
        let last_slot_start = (day / slot_s) * slot_s; // 86_100 = slot 205
        let slots: Vec<u32> = slots_overlapping(last_slot_start - 60, day + 400, slot_s).collect();
        assert_eq!(slots, vec![204, 205, 0]);
        let two: Vec<u32> = slots_overlapping(last_slot_start, day + 500, slot_s).collect();
        assert_eq!(two, vec![205, 0, 1]);
    }

    #[test]
    fn slot_window_is_exact_size() {
        let w = slots_overlapping(23 * 3600 + 55 * 60, 24 * 3600 + 600, 300);
        assert_eq!(w.len(), 3);
        assert_eq!(w.collect::<Vec<_>>(), vec![287, 0, 1]);
        assert_eq!(slots_overlapping(600, 900, 300).len(), 1);
    }

    #[test]
    fn format_hhmm_examples() {
        assert_eq!(format_hhmm(0), "00:00");
        assert_eq!(format_hhmm(11 * 3600 + 5 * 60), "11:05");
        assert_eq!(format_hhmm(23 * 3600 + 59 * 60 + 59), "23:59");
        assert_eq!(format_hhmm(streach_traj::SECONDS_PER_DAY), "00:00");
    }
}
