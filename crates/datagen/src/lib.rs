//! # tsexplain-datagen
//!
//! Seeded, deterministic workload generators for the TSExplain
//! reproduction.
//!
//! The paper evaluates on one synthetic corpus (§4.2.1, §7.1.1) and four
//! real-world datasets (§7.1.2, §8). The original CSVs (JHU Covid, S&P 500
//! constituents, Iowa liquor sales, CDC deaths) are not available offline,
//! so each is replaced by a generator that reproduces the statistics the
//! paper reports (Table 6: ε, filtered ε, n) and the qualitative structure
//! the case studies rely on.
//!
//! * [`synthetic`] — the ground-truth corpus: piecewise-linear per-category
//!   series with alternating trends and Gaussian noise at SNR dB levels.
//! * [`covid`] — 58 states × 345 days, total- and daily-confirmed-cases.
//! * [`sp500`] — 503 stocks in a sector → industry → stock hierarchy over
//!   the 2020 crash/rebound window.
//! * [`liquor`] — Iowa-style purchase transactions over
//!   BottleVolume/Pack/Category/Vendor with the pandemic shift.
//! * [`covid_deaths`] — weekly deaths by age-group × vaccination status
//!   (the time-varying-attribute case study, §8).

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
pub mod covid;
pub mod covid_deaths;
mod dates;
pub mod liquor;
mod noise;
mod rng;
pub mod sp500;
pub mod synthetic;
mod workload;

pub use dates::{trading_days_2020, weekdays, DateIter};
pub use noise::{add_gaussian_noise, signal_power, snr_sigma};
pub use rng::gaussian;
pub use workload::Workload;
