//! Local, API-compatible shim for the subset of `serde` this workspace
//! uses: `#[derive(Serialize, Deserialize)]` plus JSON round-tripping via
//! the sibling `serde_json` shim.
//!
//! The build environment has no registry access, so the real serde cannot
//! be fetched. Instead of serde's format-agnostic visitor architecture,
//! this shim has one format: derived impls write JSON tokens straight
//! into a [`Serializer`] and pull them from a [`Deserializer`] over the
//! input bytes, with no intermediate value tree. The JSON mapping
//! mirrors serde's defaults:
//!
//! * named structs → objects, field order preserved;
//! * 1-field tuple structs (newtypes) → the inner value;
//! * n-field tuple structs → arrays;
//! * unit enum variants → `"Name"`; data variants → `{"Name": ...}`
//!   (externally tagged, like stock serde);
//! * `Option` → `null` / value, tuples and arrays → arrays.
//!
//! Reading follows the rules the shim has always applied: unknown keys
//! are skipped, the first of a repeated key wins, a missing field is an
//! error even for an `Option`, a tuple ignores extra array elements, an
//! `[T; N]` checks its length, and a float also reads an integer.
//!
//! Swapping the real serde back in later requires no source changes in the
//! workspace: only the manifests would change.

#![forbid(unsafe_code)]

pub mod de;
mod ser;

pub use de::Deserializer;
pub use ser::Serializer;
pub use serde_derive::{Deserialize, Serialize};

use de::Number;

/// Deserialization error: a path-less message, like `serde_json::Error`'s
/// `Display` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Creates an error from any message.
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }

    /// A struct field absent from its object.
    #[must_use]
    pub fn missing_field(field: &str) -> Self {
        Self(format!("missing field `{field}`"))
    }

    /// An enum tag that names no variant of `ty`.
    #[must_use]
    pub fn unknown_variant(tag: &str, ty: &str) -> Self {
        Self(format!("unknown variant `{tag}` of {ty}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Writing as JSON tokens (stands in for `serde::Serialize`).
pub trait Serialize {
    /// Writes `self` into `s`.
    fn serialize(&self, s: &mut Serializer<'_>);
}

/// Reading from JSON tokens (stands in for `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Reads one value from `d`.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a shape mismatch with `Self`.
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error>;
}

macro_rules! int_impl {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.$write(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                let range = || Error::msg(concat!("out of range for ", stringify!($t)));
                match d.number(stringify!($t))? {
                    Number::UInt(u) => <$t>::try_from(u).map_err(|_| range()),
                    Number::Int(i) => <$t>::try_from(i).map_err(|_| range()),
                    Number::Float(_) => Err(Error::msg(concat!(
                        "expected ",
                        stringify!($t),
                        ", got a float"
                    ))),
                }
            }
        }
    )*};
}

int_impl!(u128 as u128: u8, u16, u32, u64, u128, usize);
int_impl!(i128 as i128: i8, i16, i32, i64, i128, isize);

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.bool()
    }
}

macro_rules! float_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.f64(f64::from(*self));
            }
        }
        impl Deserialize for $t {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                Ok(match d.number("number")? {
                    Number::Float(f) => f as $t,
                    Number::UInt(u) => u as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

float_impl!(f32, f64);

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer<'_>) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            None => s.null(),
            Some(x) => x.serialize(s),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        if d.null()? {
            Ok(None)
        } else {
            T::deserialize(d).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.begin_array();
        for item in self {
            s.element();
            item.serialize(s);
        }
        s.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.begin_array()?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer<'_>) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(d)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected array of length {N}, got {len}")))
    }
}

macro_rules! tuple_impl {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.begin_array();
                $(
                    s.element();
                    self.$i.serialize(s);
                )+
                s.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                d.begin_array()?;
                let value = ($({
                    d.element($i)?;
                    $t::deserialize(d)?
                },)+);
                d.end_array()?;
                Ok(value)
            }
        }
    )*};
}

tuple_impl! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
        let mut s = Serializer::new(false);
        value.serialize(&mut s);
        let json = s.into_string();
        let mut d = Deserializer::new(&json);
        let back = T::deserialize(&mut d).expect("reads back");
        d.end().expect("nothing trails");
        back
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(round_trip(&42u64), 42);
        assert_eq!(round_trip(&-5i32), -5);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&None::<u8>), None);
        let t = (1u8, "x".to_string());
        assert_eq!(round_trip(&t), t);
        let arr = [true, false, true];
        assert_eq!(round_trip(&arr), arr);
    }
}
