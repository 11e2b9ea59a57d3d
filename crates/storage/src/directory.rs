//! The one `i64 → u32` directory under [`KeyIndex`](crate::KeyIndex)
//! (slot = row id) and [`JoinTable`](crate::ops::JoinTable) (slot = bucket):
//! direct-addressed when the keys are dense in their range (DuckDB's
//! perfect-hash join), hashed otherwise — a property of the data, not a knob.

use relgo_common::{FxHashMap, FxHashSet};

/// How far a direct-address directory may outgrow the keys it holds: a
/// 4-byte slot per value of the key range costs no more than a 16-byte
/// hash-map entry per key up to this factor.
const DENSE_SLACK: usize = 4;

/// Never a slot: tables hold fewer than `u32::MAX` rows.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub(crate) enum Directory {
    /// `slots[key - min]`, [`VACANT`] where the range has a gap.
    Direct {
        min: i64,
        slots: Vec<u32>,
    },
    Hashed(FxHashMap<i64, u32>),
}

impl Directory {
    /// An empty directory shaped for `keys`: direct when their range is
    /// within [`DENSE_SLACK`] of their count, hashed when they are sparser —
    /// or span more than `i64` arithmetic holds, or there are none.
    pub(crate) fn for_keys(keys: impl Iterator<Item = i64>) -> Directory {
        let (min, max, count) = keys.fold((i64::MAX, i64::MIN, 0usize), |(lo, hi, n), k| {
            (lo.min(k), hi.max(k), n + 1)
        });
        let slots = max
            .checked_sub(min)
            .and_then(|span| usize::try_from(span).ok()?.checked_add(1))
            .filter(|&slots| slots <= count.saturating_mul(DENSE_SLACK));
        match slots {
            Some(slots) => Directory::Direct {
                min,
                slots: vec![VACANT; slots],
            },
            None => Directory::Hashed(FxHashMap::with_capacity_and_hasher(
                count,
                Default::default(),
            )),
        }
    }

    /// The slot of `key`, which becomes `fresh` if it had none. `key` must
    /// be one of the keys the directory was shaped for.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, key: i64, fresh: u32) -> u32 {
        match self {
            // `min <= key <= max` and `max - min` fits: no overflow.
            Directory::Direct { min, slots } => {
                let slot = &mut slots[(key - *min) as usize];
                if *slot == VACANT {
                    *slot = fresh;
                }
                *slot
            }
            Directory::Hashed(map) => *map.entry(key).or_insert(fresh),
        }
    }

    /// The slot of `key`, any `i64`.
    #[inline]
    pub(crate) fn get(&self, key: i64) -> Option<u32> {
        match self {
            Directory::Direct { min, slots } => {
                let at = usize::try_from(key.checked_sub(*min)?).ok()?;
                slots.get(at).copied().filter(|&s| s != VACANT)
            }
            Directory::Hashed(map) => map.get(&key).copied(),
        }
    }
}

/// Some of the keys a [`KeyIndex`](crate::KeyIndex) holds, in the shape its
/// directory has: a bit per value of the key range under a direct-addressed
/// one, a hash set under a hashed one — membership costs what a lookup would,
/// minus the slot.
#[derive(Debug, Clone)]
pub enum KeySet {
    /// Bit `key - min` of `bits`.
    Direct {
        /// The smallest key of the range.
        min: i64,
        /// One bit per value of the range, in 64-bit words.
        bits: Vec<u64>,
    },
    /// The keys themselves.
    Hashed(FxHashSet<i64>),
}

impl KeySet {
    /// The set of `keys` among the values `min .. min + span`; a key outside
    /// that range is not recorded.
    pub fn direct(min: i64, span: usize, keys: impl Iterator<Item = i64>) -> KeySet {
        let mut bits = vec![0u64; span.div_ceil(64)];
        for key in keys {
            let at = key.checked_sub(min).and_then(|at| usize::try_from(at).ok());
            if let Some(at) = at.filter(|&at| at < span) {
                bits[at / 64] |= 1 << (at % 64);
            }
        }
        KeySet::Direct { min, bits }
    }

    /// Whether `key`, any `i64`, is in the set.
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        match self {
            KeySet::Direct { min, bits } => key
                .checked_sub(*min)
                .and_then(|at| usize::try_from(at).ok())
                .and_then(|at| Some(bits.get(at / 64)? >> (at % 64) & 1 == 1))
                .unwrap_or(false),
            KeySet::Hashed(keys) => keys.contains(&key),
        }
    }
}

impl Directory {
    /// `keys` — keys this directory holds — as a [`KeySet`] of its shape.
    pub(crate) fn key_set(&self, keys: impl Iterator<Item = i64>) -> KeySet {
        match self {
            Directory::Direct { min, slots } => KeySet::direct(*min, slots.len(), keys),
            Directory::Hashed(_) => KeySet::Hashed(keys.collect()),
        }
    }
}
