//! Dimensioned quantities of the cost model.
//!
//! The Table I comparison is a component budget: every circuit block adds
//! a latency in ns and an energy in pJ, and those sums become seconds,
//! joules and watts against the GPU. Each newtype here wraps one `f64` in
//! one unit and implements only the operations that keep the dimension:
//! `+`, `-`, `+=`, `Sum`, `max`, `abs`, ordering, scaling by `f64` on
//! either side, division by `f64`, and `T / T -> f64`. Every step between
//! units is a named conversion that does exactly the arithmetic the model
//! always did, so carrying the types changes no bit of any result.
//!
//! The inner value is public: `.0` is the one way out to plain `f64`, at
//! the boundary to dimensionless or unit-free code (the GPU baseline,
//! telemetry reports, ratios).
//!
//! ```
//! use reram_crossbar::units::{Joules, Ns, Pj, Seconds, Um2, Watts};
//!
//! let power = Pj(2e12).to_joules() / Ns(1e9).to_seconds();
//! assert_eq!(power, Watts(2.0));
//! assert_eq!(Seconds(2.0).to_ns(), Ns(2e9));
//! assert_eq!(Um2(2.5e6).to_mm2().0, 2.5);
//! assert_eq!(Joules(1.0) + Joules(0.5), Joules(1.5));
//! assert_eq!(Ns(1.0) - Ns(0.5), Ns(0.5));
//! assert_eq!(format!("{:.1}", Pj(1.14) + 2.0 * Pj(1.0)), "3.1");
//! ```
//!
//! Adding quantities of different dimensions does not compile:
//!
//! ```compile_fail
//! use reram_crossbar::units::{Ns, Pj};
//! let _ = Pj(1.0) + Ns(1.0);
//! ```
//!
//! Neither does mixing two units of the same dimension:
//!
//! ```compile_fail
//! use reram_crossbar::units::{Joules, Pj};
//! let _ = Joules(1.0) + Pj(1.0);
//! ```
//!
//! ```compile_fail
//! use reram_crossbar::units::{Ns, Seconds};
//! let _ = Ns(1.0) - Seconds(1.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// The larger of two quantities, as [`f64::max`].
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Magnitude, as [`f64::abs`].
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

quantity! {
    /// Energy, picojoules.
    Pj
}
quantity! {
    /// Energy, joules.
    Joules
}
quantity! {
    /// Time, nanoseconds.
    Ns
}
quantity! {
    /// Time, seconds.
    Seconds
}
quantity! {
    /// Power, watts.
    Watts
}
quantity! {
    /// Area, square micrometres.
    Um2
}
quantity! {
    /// Area, square millimetres.
    Mm2
}

impl Pj {
    /// The same energy in joules (`· 1e-12`).
    #[must_use]
    pub fn to_joules(self) -> Joules {
        Joules(self.0 * 1e-12)
    }
}

impl Ns {
    /// The same time in seconds (`· 1e-9`).
    #[must_use]
    pub fn to_seconds(self) -> Seconds {
        Seconds(self.0 * 1e-9)
    }
}

impl Seconds {
    /// The same time in nanoseconds (`· 1e9`).
    #[must_use]
    pub fn to_ns(self) -> Ns {
        Ns(self.0 * 1e9)
    }
}

impl Um2 {
    /// The same area in square millimetres (`/ 1e6`).
    #[must_use]
    pub fn to_mm2(self) -> Mm2 {
        Mm2(self.0 / 1e6)
    }
}

/// Average power: energy over time.
impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}
