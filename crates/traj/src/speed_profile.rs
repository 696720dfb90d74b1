//! Time-of-day speed profiles.
//!
//! The paper's evaluation shows that "at around 7am and 6pm, the running
//! time drops significantly, which [is] primarily because of the effect of
//! rush hours. The traffic condition goes down during these rush hours, which
//! leads to smaller reachable regions" (Section 4.2.3). The synthetic fleet
//! reproduces this with a deterministic congestion profile: a multiplicative
//! factor on the free-flow speed that dips during the morning and evening
//! peaks.

use streach_roadnet::RoadClass;

/// A deterministic time-of-day congestion profile.
#[derive(Debug, Clone)]
pub struct SpeedProfile {
    /// Lowest congestion factor reached at the centre of a rush-hour peak
    /// (e.g. 0.35 = traffic moves at 35% of free-flow speed).
    pub rush_hour_floor: f64,
    /// Baseline daytime factor outside rush hours.
    pub daytime_factor: f64,
    /// Night-time factor (free-flowing).
    pub night_factor: f64,
}

impl Default for SpeedProfile {
    fn default() -> Self {
        Self {
            rush_hour_floor: 0.35,
            daytime_factor: 0.85,
            night_factor: 1.0,
        }
    }
}

/// Gaussian-ish bump used to shape the rush-hour dips.
fn bump(hour: f64, center: f64, width: f64) -> f64 {
    let x = (hour - center) / width;
    (-x * x).exp()
}

impl SpeedProfile {
    /// Congestion factor in `(0, 1]` at `time_s` seconds after midnight.
    ///
    /// The profile has a morning peak centred at 07:45 and an evening peak
    /// centred at 18:00, free-flowing nights, and a mild daytime baseline.
    pub fn congestion_factor(&self, time_s: u32) -> f64 {
        let hour = (time_s % crate::SECONDS_PER_DAY) as f64 / 3600.0;
        // Night: before 06:00 or after 22:00.
        let day_blend = bump(hour, 13.0, 7.0); // ~1 during the day, ~0 at night
        let base = self.night_factor + (self.daytime_factor - self.night_factor) * day_blend;
        let morning = bump(hour, 7.75, 1.1);
        let evening = bump(hour, 18.0, 1.3);
        let peak = morning.max(evening);
        let factor = base - (base - self.rush_hour_floor) * peak;
        factor.clamp(0.05, 1.0)
    }

    /// Actual travel speed in m/s on a road of the given class at the given
    /// time of day.
    ///
    /// Rush-hour congestion hits the arterial classes (highway/primary)
    /// hardest — matching the observation that long highway trips dominate
    /// the far part of the reachable region while congestion reshapes it.
    pub fn speed_ms(&self, class: RoadClass, time_s: u32) -> f64 {
        let factor = self.congestion_factor(time_s);
        let class_sensitivity = match class {
            RoadClass::Highway => 1.0,
            RoadClass::Primary => 0.95,
            RoadClass::Secondary => 0.85,
            RoadClass::Local => 0.75,
        };
        // Blend the congestion factor toward 1.0 for less sensitive classes.
        let effective = 1.0 - (1.0 - factor) * class_sensitivity;
        class.free_flow_ms() * effective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hhmm(h: u32, m: u32) -> u32 {
        h * 3600 + m * 60
    }

    #[test]
    fn night_is_free_flowing() {
        let p = SpeedProfile::default();
        assert!(p.congestion_factor(hhmm(2, 0)) > 0.9);
        assert!(p.congestion_factor(hhmm(23, 30)) > 0.85);
    }

    #[test]
    fn rush_hours_are_congested() {
        let p = SpeedProfile::default();
        let morning = p.congestion_factor(hhmm(7, 45));
        let evening = p.congestion_factor(hhmm(18, 0));
        let midday = p.congestion_factor(hhmm(12, 0));
        let night = p.congestion_factor(hhmm(1, 0));
        assert!(morning < 0.5, "morning factor {morning}");
        assert!(evening < 0.5, "evening factor {evening}");
        assert!(
            midday > morning + 0.2,
            "midday {midday} vs morning {morning}"
        );
        assert!(night > midday, "night {night} vs midday {midday}");
    }

    #[test]
    fn factor_is_always_in_range() {
        let p = SpeedProfile::default();
        for t in (0..crate::SECONDS_PER_DAY).step_by(60) {
            let f = p.congestion_factor(t);
            assert!((0.05..=1.0).contains(&f), "factor {f} at {t}");
        }
    }

    #[test]
    fn speeds_ordered_by_class_at_all_times() {
        let p = SpeedProfile::default();
        for t in (0..crate::SECONDS_PER_DAY).step_by(1800) {
            let h = p.speed_ms(RoadClass::Highway, t);
            let pr = p.speed_ms(RoadClass::Primary, t);
            let s = p.speed_ms(RoadClass::Secondary, t);
            let l = p.speed_ms(RoadClass::Local, t);
            assert!(
                h > pr && pr > s && s > l,
                "speeds not ordered at t={t}: {h} {pr} {s} {l}"
            );
            assert!(l > 1.0, "local speed collapsed at t={t}");
        }
    }

    #[test]
    fn rush_hour_slows_highways_more_in_relative_terms() {
        let p = SpeedProfile::default();
        let highway_ratio =
            p.speed_ms(RoadClass::Highway, hhmm(7, 45)) / RoadClass::Highway.free_flow_ms();
        let local_ratio =
            p.speed_ms(RoadClass::Local, hhmm(7, 45)) / RoadClass::Local.free_flow_ms();
        assert!(highway_ratio < local_ratio);
    }

    #[test]
    fn time_wraps_across_midnight() {
        let p = SpeedProfile::default();
        let same = p.congestion_factor(hhmm(1, 0));
        let wrapped = p.congestion_factor(crate::SECONDS_PER_DAY + hhmm(1, 0));
        assert!((same - wrapped).abs() < 1e-12);
    }
}
