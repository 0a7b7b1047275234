//! `Serialize` / `Deserialize` for the standard-library types this
//! repository puts in its wire and checkpoint formats.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use crate::json::{Error, Number, Value, Writer};
use crate::{Deserialize, Serialize};

// --- integers --------------------------------------------------------------

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(Number::U(u)) => <$t>::try_from(*u).map_err(|_| {
                        Error::custom(format!("{u} is out of range for {}", stringify!($t)))
                    }),
                    other => Err(Error::invalid_type(other, stringify!($t))),
                }
            }
        }
        impl MapKey for $t {
            fn write_key(&self, w: &mut Writer, first: &mut bool) {
                w.key(first, &self.to_string());
            }
            fn parse_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::custom(format!("invalid {} key {key:?}", stringify!($t))))
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let wide: i64 = match v {
                    Value::Number(Number::I(i)) => *i,
                    Value::Number(Number::U(u)) => i64::try_from(*u).map_err(|_| {
                        Error::custom(format!("{u} is out of range for {}", stringify!($t)))
                    })?,
                    other => return Err(Error::invalid_type(other, stringify!($t))),
                };
                <$t>::try_from(wide).map_err(|_| {
                    Error::custom(format!("{wide} is out of range for {}", stringify!($t)))
                })
            }
        }
        impl MapKey for $t {
            fn write_key(&self, w: &mut Writer, first: &mut bool) {
                w.key(first, &self.to_string());
            }
            fn parse_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::custom(format!("invalid {} key {key:?}", stringify!($t))))
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

// --- floats, bool, strings ---------------------------------------------------

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.float(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer) {
        w.float(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(Error::invalid_type(other, "f64")),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => Ok(n.as_f64() as f32),
            other => Err(Error::invalid_type(other, "f32")),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::invalid_type(other, "a boolean")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::invalid_type(other, "a string")),
        }
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.string(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        if let Value::String(s) = v {
            let mut chars = s.chars();
            if let (Some(c), None) = (chars.next(), chars.next()) {
                return Ok(c);
            }
        }
        Err(Error::invalid_type(v, "a character"))
    }
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null();
    }
}

impl Deserialize for () {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_null("()")
    }
}

// --- references and smart pointers -----------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Arc::new)
    }
}

// --- Option ------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(x) => x.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn missing(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

// --- sequences ---------------------------------------------------------------

fn write_seq<'a, T: Serialize + 'a>(w: &mut Writer, items: impl IntoIterator<Item = &'a T>) {
    w.begin_array();
    let mut first = true;
    for item in items {
        w.element(&mut first);
        item.serialize(w);
    }
    w.end_array();
}

fn read_seq<T: Deserialize, C: FromIterator<T>>(v: &Value) -> Result<C, Error> {
    v.as_array()?.iter().map(T::deserialize).collect()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = read_seq(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("invalid length {len}, expected an array of {N}")))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_seq(v)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_seq(v)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_seq(v)
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self);
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_seq(v)
    }
}

macro_rules! tuples {
    ($(($($name:ident $idx:tt),+) $len:literal;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                let mut first = true;
                $(w.element(&mut first); self.$idx.serialize(w);)+
                w.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let elems = v.as_tuple($len, "a tuple")?;
                Ok(($($name::deserialize(&elems[$idx])?,)+))
            }
        }
    )*};
}
tuples! {
    (A 0) 1;
    (A 0, B 1) 2;
    (A 0, B 1, C 2) 3;
    (A 0, B 1, C 2, D 3) 4;
}

// --- maps --------------------------------------------------------------------

/// Types usable as JSON object keys: strings, and integers written in
/// decimal (as the published `serde_json` does).
pub trait MapKey: Sized {
    /// Starts an object entry with this key.
    fn write_key(&self, w: &mut Writer, first: &mut bool);
    /// Parses the key back.
    ///
    /// # Errors
    /// Fails if `key` is not this type's text form.
    fn parse_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn write_key(&self, w: &mut Writer, first: &mut bool) {
        w.key(first, self);
    }
    fn parse_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    w: &mut Writer,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    w.begin_object();
    let mut first = true;
    for (k, v) in entries {
        k.write_key(w, &mut first);
        v.serialize(w);
    }
    w.end_object();
}

fn read_map<K: MapKey, V: Deserialize, C: FromIterator<(K, V)>>(v: &Value) -> Result<C, Error> {
    v.as_object("a map")?
        .iter()
        .map(|(k, v)| Ok((K::parse_key(k)?, V::deserialize(v)?)))
        .collect()
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        write_map(w, self);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_map(v)
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        write_map(w, self);
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(v: &Value) -> Result<Self, Error> {
        read_map(v)
    }
}
