use tpi_netlist::GateKind;

/// Three-valued logic: 0, 1 or unknown.
///
/// PODEM's circuit state is a *pair* of ternary values per line — the
/// good-machine and faulty-machine values — which encodes the classic
/// five-valued D-calculus (`D` = (1,0), `D̄` = (0,1)) plus the partially
/// assigned cases a pair encoding handles for free. Internally the pair
/// is packed into one byte (`Pair`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl Ternary {
    /// Lift a boolean.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// The boolean, if determined.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::X => None,
        }
    }

    /// Whether the value is determined.
    pub fn is_binary(self) -> bool {
        self != Ternary::X
    }

    /// Three-valued complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

/// The good- and faulty-machine values of one line, packed into one
/// byte: bit 0 = good is 0, bit 1 = good is 1, bit 2 = faulty is 0,
/// bit 3 = faulty is 1. An X sets neither bit of its machine.
///
/// [`eval_pair`] evaluates both machines of a gate at once with a few
/// mask operations; per machine it is the truth table of
/// three-valued logic (controlling values dominate X, otherwise any X
/// makes the output X, X is absorbing for parity).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Pair(u8);

/// The "is 0" bits of both machines.
const ZEROS: u8 = 0b0101;
/// The "is 1" bits of both machines.
const ONES: u8 = 0b1010;
/// The good machine's two bits.
const GOOD: u8 = 0b0011;

impl Pair {
    /// X in both machines.
    pub(crate) const X: Pair = Pair(0);

    /// The same ternary value in both machines.
    pub(crate) fn both(v: Ternary) -> Pair {
        let bits = encode(v);
        Pair(bits | bits << 2)
    }

    /// A good and a faulty value.
    #[cfg(test)]
    pub(crate) fn new(good: Ternary, faulty: Ternary) -> Pair {
        Pair(encode(good) | encode(faulty) << 2)
    }

    /// The good machine's value.
    pub(crate) fn good(self) -> Ternary {
        decode(self.0 & GOOD)
    }

    /// The faulty machine's value.
    #[cfg(test)]
    pub(crate) fn faulty(self) -> Ternary {
        decode(self.0 >> 2)
    }

    /// Whether the good machine is X.
    pub(crate) fn good_is_x(self) -> bool {
        self.0 & GOOD == 0
    }

    /// Whether either machine is X.
    pub(crate) fn has_x(self) -> bool {
        self.0 & GOOD == 0 || self.0 >> 2 == 0
    }

    /// Whether both machines are binary and equal: no later assignment
    /// can make the line carry a `D` or `D̄`.
    pub(crate) fn is_settled(self) -> bool {
        self.0 == ZEROS || self.0 == ONES
    }

    /// Whether both machines are binary and differ (`D` or `D̄`).
    pub(crate) fn is_d(self) -> bool {
        let (good, faulty) = (self.0 & GOOD, self.0 >> 2);
        good != 0 && faulty != 0 && good != faulty
    }

    /// The same good value with the faulty machine stuck at `stuck`.
    pub(crate) fn stuck(self, stuck: bool) -> Pair {
        Pair(self.0 & GOOD | if stuck { 0b1000 } else { 0b0100 })
    }

    /// Complement both machines (swap each machine's two bits).
    fn not(self) -> Pair {
        Pair((self.0 & ZEROS) << 1 | (self.0 >> 1) & ZEROS)
    }
}

fn encode(v: Ternary) -> u8 {
    match v {
        Ternary::Zero => 0b01,
        Ternary::One => 0b10,
        Ternary::X => 0,
    }
}

fn decode(bits: u8) -> Ternary {
    match bits {
        0b01 => Ternary::Zero,
        0b10 => Ternary::One,
        _ => Ternary::X,
    }
}

/// Evaluate a gate in both machines at once over its pin values.
///
/// AND/NAND/OR/NOR make one pass computing an OR-fold and an AND-fold of
/// the pins: a machine's output is at the controlling value's result
/// when any pin is controlling (OR-fold) and at the other result when
/// every pin is non-controlling (AND-fold). XOR/XNOR fold the parity of
/// the "is 1" bits and the "is known" mask. Inverting kinds swap each
/// machine's bit pair. Sources evaluate to their constant or to X.
pub(crate) fn eval_pair(kind: GateKind, mut pins: impl Iterator<Item = Pair>) -> Pair {
    match kind {
        GateKind::Const0 => Pair::both(Ternary::Zero),
        GateKind::Const1 => Pair::both(Ternary::One),
        GateKind::Input => Pair::X,
        GateKind::Buf => pins.next().unwrap_or(Pair::X),
        GateKind::Not => pins.next().unwrap_or(Pair::X).not(),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let (any, all) = pins.fold((0u8, 0b1111u8), |(any, all), p| (any | p.0, all & p.0));
            let out = if matches!(kind, GateKind::And | GateKind::Nand) {
                Pair(any & ZEROS | all & ONES)
            } else {
                Pair(any & ONES | all & ZEROS)
            };
            if kind.inverts_output() {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let (parity, known) = pins.fold((0u8, ZEROS), |(parity, known), p| {
                (parity ^ (p.0 >> 1) & ZEROS, known & (p.0 | p.0 >> 1))
            });
            let out = Pair((parity & known) << 1 | !parity & known);
            if kind.inverts_output() {
                out.not()
            } else {
                out
            }
        }
    }
}

/// Evaluate a gate in three-valued logic, one machine at a time: the
/// reference [`eval_pair`] is checked against.
///
/// Controlling values dominate unknowns (an AND with a 0 input is 0 even
/// if other inputs are X); otherwise any X makes the output X.
#[cfg(test)]
pub(crate) fn eval_ternary<I: IntoIterator<Item = Ternary>>(kind: GateKind, fanins: I) -> Ternary {
    let mut it = fanins.into_iter();
    match kind {
        GateKind::Const0 => Ternary::Zero,
        GateKind::Const1 => Ternary::One,
        GateKind::Input => Ternary::X,
        GateKind::Buf => it.next().unwrap_or(Ternary::X),
        GateKind::Not => it.next().unwrap_or(Ternary::X).not(),
        GateKind::And | GateKind::Nand => {
            let mut saw_x = false;
            let mut out = Ternary::One;
            for v in it {
                match v {
                    Ternary::Zero => {
                        out = Ternary::Zero;
                        saw_x = false;
                        break;
                    }
                    Ternary::X => saw_x = true,
                    Ternary::One => {}
                }
            }
            let out = if saw_x { Ternary::X } else { out };
            if kind == GateKind::Nand {
                out.not()
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut saw_x = false;
            let mut out = Ternary::Zero;
            for v in it {
                match v {
                    Ternary::One => {
                        out = Ternary::One;
                        saw_x = false;
                        break;
                    }
                    Ternary::X => saw_x = true,
                    Ternary::Zero => {}
                }
            }
            let out = if saw_x { Ternary::X } else { out };
            if kind == GateKind::Nor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = Ternary::Zero;
            for v in it {
                acc = match (acc, v) {
                    (Ternary::X, _) | (_, Ternary::X) => Ternary::X,
                    (a, b) => Ternary::from_bool(a.to_bool().unwrap() ^ b.to_bool().unwrap()),
                };
                if acc == Ternary::X {
                    return Ternary::X; // X is absorbing for parity
                }
            }
            if kind == GateKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(
            eval_ternary(GateKind::And, [Ternary::Zero, Ternary::X]),
            Ternary::Zero
        );
        assert_eq!(
            eval_ternary(GateKind::Nand, [Ternary::Zero, Ternary::X]),
            Ternary::One
        );
        assert_eq!(
            eval_ternary(GateKind::Or, [Ternary::X, Ternary::One]),
            Ternary::One
        );
        assert_eq!(
            eval_ternary(GateKind::Nor, [Ternary::X, Ternary::One]),
            Ternary::Zero
        );
    }

    #[test]
    fn x_propagates_without_controlling_input() {
        assert_eq!(
            eval_ternary(GateKind::And, [Ternary::One, Ternary::X]),
            Ternary::X
        );
        assert_eq!(
            eval_ternary(GateKind::Or, [Ternary::Zero, Ternary::X]),
            Ternary::X
        );
        assert_eq!(
            eval_ternary(GateKind::Xor, [Ternary::One, Ternary::X]),
            Ternary::X
        );
    }

    #[test]
    fn binary_cases_match_boolean_eval() {
        use tpi_netlist::GateKind as K;
        for kind in [K::And, K::Nand, K::Or, K::Nor, K::Xor, K::Xnor] {
            for p in 0..4u8 {
                let a = p & 1 != 0;
                let b = p & 2 != 0;
                let expected = kind.eval([a, b]);
                let got = eval_ternary(kind, [Ternary::from_bool(a), Ternary::from_bool(b)]);
                assert_eq!(got.to_bool(), Some(expected), "{kind} {a} {b}");
            }
        }
    }

    #[test]
    fn unary_and_constants() {
        assert_eq!(eval_ternary(GateKind::Not, [Ternary::X]), Ternary::X);
        assert_eq!(eval_ternary(GateKind::Buf, [Ternary::One]), Ternary::One);
        assert_eq!(eval_ternary(GateKind::Const1, []), Ternary::One);
        assert_eq!(eval_ternary(GateKind::Const0, []), Ternary::Zero);
    }

    #[test]
    fn ternary_helpers() {
        assert_eq!(Ternary::from_bool(true), Ternary::One);
        assert_eq!(Ternary::One.not(), Ternary::Zero);
        assert_eq!(Ternary::X.not(), Ternary::X);
        assert!(Ternary::Zero.is_binary());
        assert!(!Ternary::X.is_binary());
        assert_eq!(Ternary::X.to_bool(), None);
    }
}
