//! Offline-compatible subset of `serde`.
//!
//! Instead of the real crate's visitor-based data model, [`Serialize`]
//! converts a value into a simple JSON-like [`Value`] tree, which is
//! all the serialization this workspace performs (`serde_json`
//! pretty-printing of figure series and metric snapshots). The derive
//! macro is re-exported from the sibling `serde_derive` stub. Nothing
//! in the workspace deserializes, so the stub only serializes.

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, HashMap};

/// A JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// Types convertible into a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}
ser_tuple!(A: 0);
ser_tuple!(A: 0, B: 1);
ser_tuple!(A: 0, B: 1, C: 2);
ser_tuple!(A: 0, B: 1, C: 2, D: 3);

fn key_string(v: Value) -> String {
    match v {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_string(k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_string(k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_values() {
        assert_eq!(42u32.to_value(), Value::U64(42));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(Option::<u8>::None.to_value(), Value::Null);
    }

    #[test]
    fn containers_recurse() {
        let v = vec![1u8, 2];
        assert_eq!(
            v.to_value(),
            Value::Array(vec![Value::U64(1), Value::U64(2)])
        );
        let t = (1u8, "x");
        assert_eq!(
            t.to_value(),
            Value::Array(vec![Value::U64(1), Value::Str("x".into())])
        );
    }
}
