//! One declaration per stateful type: the field list that both writes a
//! snapshot and reads it back.
//!
//! A [`State`] is anything restored *in place*, onto a machine built
//! from the same configuration, so its configuration-derived fields
//! survive the restore. A [`Codec`] is a value that decodes into a new
//! value (an integer, a packet, an engine state); every `Codec` is a
//! `State` that is overwritten on restore.
//!
//! Neither is written by hand for an ordinary type. [`codec!`] declares a
//! struct's or a tagged enum's fields once, in wire order, and derives
//! both directions from that list; [`snapshot_state!`] does the same for
//! a component, naming each field saved (with the [`Field`] adapter that
//! encodes it, if not plain) or derived. Both destructure the type with
//! no `..`, so a field added later does not compile until it is
//! classified.
//!
//! The adapters keep the bulk primitives of [`SnapWriter`]: arrays the
//! configuration sized go through the slice readers ([`Fixed`]), record
//! runs through [`Records`], and a layout of its own (a sparse way array,
//! a ring read out in FIFO order) is a [`Field`] impl beside its type.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use super::{RecordReader, RecordWriter, SnapReader, SnapResult, SnapWriter};
use crate::time::Cycle;

/// A value that writes itself into a snapshot and reads itself back.
pub(crate) trait Codec: Sized {
    fn put(&self, w: &mut SnapWriter);
    fn get(r: &mut SnapReader) -> SnapResult<Self>;
}

/// Snapshot state restored in place.
pub(crate) trait State {
    fn save(&self, w: &mut SnapWriter);
    fn load(&mut self, r: &mut SnapReader) -> SnapResult<()>;
}

impl<T: Codec> State for T {
    fn save(&self, w: &mut SnapWriter) {
        self.put(w);
    }
    fn load(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        *self = T::get(r)?;
        Ok(())
    }
}

/// How one saved field is written and read back in place.
pub(crate) trait Field<T: ?Sized> {
    fn put(&self, v: &T, w: &mut SnapWriter);
    fn load(&self, v: &mut T, r: &mut SnapReader) -> SnapResult<()>;
}

/// A value that encodes as one `N`-byte record, for [`Records`].
pub(crate) trait Record<const N: usize>: Sized {
    fn record(&self) -> [u8; N];
    /// Decode a record, naming what is wrong with one it rejects.
    fn from_record(f: RecordReader<'_, N>) -> Result<Self, &'static str>;
}

macro_rules! primitive_codecs {
    ($($t:ty => $m:ident),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut SnapWriter) {
                w.$m(*self);
            }
            fn get(r: &mut SnapReader) -> SnapResult<$t> {
                r.$m()
            }
        }
    )*};
}

primitive_codecs!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, i32 => i32, i64 => i64,
    usize => usize, bool => bool, Cycle => cycle);

impl Codec for String {
    fn put(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn get(r: &mut SnapReader) -> SnapResult<String> {
        r.str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.opt(self.as_ref(), |w, v| v.put(w));
    }
    fn get(r: &mut SnapReader) -> SnapResult<Option<T>> {
        r.opt(T::get)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.seq(self.iter(), |w, v| v.put(w));
    }
    fn get(r: &mut SnapReader) -> SnapResult<Vec<T>> {
        r.seq(T::get)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.seq(self.iter(), |w, v| v.put(w));
    }
    fn get(r: &mut SnapReader) -> SnapResult<VecDeque<T>> {
        Ok(r.seq(T::get)?.into())
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn put(&self, w: &mut SnapWriter) {
        T::put(self, w);
    }
    fn get(r: &mut SnapReader) -> SnapResult<Arc<T>> {
        T::get(r).map(Arc::new)
    }
}

/// In key order, so the bytes are deterministic without a sort.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.seq(self.iter(), |w, (k, v)| {
            k.put(w);
            v.put(w);
        });
    }
    fn get(r: &mut SnapReader) -> SnapResult<BTreeMap<K, V>> {
        Ok(r.seq(<(K, V)>::get)?.into_iter().collect())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut SnapReader) -> SnapResult<(A, B)> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Declare a value type's [`Codec`] from its fields in wire order:
///
/// ```text
/// codec!(struct Packet { dst, words, payload });
/// codec!(struct CeId(index));
/// codec!(enum Stream as "stream" { 0 => Direct { elem }, 2 => Scalar, 3 => Sync });
/// ```
///
/// A struct lists every field. An enum gives each variant its tag byte
/// and fields; a byte no variant claims is an "invalid `what`
/// discriminant" error.
macro_rules! codec {
    (struct $ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                let $ty { $($f),* } = self;
                $($crate::snapshot::Codec::put($f, w);)*
            }
            fn get(r: &mut $crate::snapshot::SnapReader) -> $crate::snapshot::SnapResult<Self> {
                Ok($ty { $($f: $crate::snapshot::Codec::get(r)?),* })
            }
        }
    };
    (struct $ty:ident ($f:ident)) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                let $ty($f) = self;
                $crate::snapshot::Codec::put($f, w);
            }
            fn get(r: &mut $crate::snapshot::SnapReader) -> $crate::snapshot::SnapResult<Self> {
                Ok($ty($crate::snapshot::Codec::get(r)?))
            }
        }
    };
    (enum $ty:ident as $what:literal {
        $($tag:literal => $v:ident $({ $($nf:ident),* $(,)? })? $(( $($tf:ident),* ))?),* $(,)?
    }) => {
        impl $crate::snapshot::Codec for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $($ty::$v $({ $($nf),* })? $(( $($tf),* ))? => {
                        w.u8($tag);
                        $($($crate::snapshot::Codec::put($nf, w);)*)?
                        $($($crate::snapshot::Codec::put($tf, w);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::snapshot::SnapReader) -> $crate::snapshot::SnapResult<Self> {
                Ok(match r.u8()? {
                    $($tag => $ty::$v
                        $({ $($nf: $crate::snapshot::Codec::get(r)?),* })?
                        $(( $({
                            let $tf = $crate::snapshot::Codec::get(r)?;
                            $tf
                        }),* ))?,)*
                    b => return Err(r.err_invalid($what, b)),
                })
            }
        }
    };
}

/// Declare a component's [`State`] from one field list:
///
/// ```text
/// snapshot_state! {
///     impl Tlb as this {
///         saved: [order, stats],
///         derived: [capacity, entries],
///         after_load: rebuild_entries,
///     }
/// }
/// ```
///
/// `saved` lists fields in wire order: `field` is a plain [`State`];
/// `field: adapter` goes through a [`Field`] adapter, whose expression
/// may read other fields of `this` (a length the configuration fixed);
/// `[a, b]: adapter` hands the whole component to an adapter that owns
/// the layout of `a` and `b` together. `derived` names every other field
/// (configuration, caches, indexes the restore rebuilds). An optional
/// `tag` opens a named section, and an optional `after_load` method
/// validates and rebuilds once every field is read.
///
/// `as this, ctx` instead generates inherent `save_with`/`load_with`
/// methods, each taking a closure that writes or reads the slot `ctx()`
/// in `saved`: data placed among the fields that is not one of them.
macro_rules! snapshot_state {
    (impl $ty:ident as $this:ident { $($body:tt)* }) => {
        impl $crate::snapshot::State for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                let $this = self;
                $crate::snapshot::snapshot_state!(@save $ty $this w $($body)*);
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader,
            ) -> $crate::snapshot::SnapResult<()> {
                let $this = self;
                $crate::snapshot::snapshot_state!(@load $ty $this r $($body)*)
            }
        }
    };
    (impl $ty:ident as $this:ident, $ctx:ident { $($body:tt)* }) => {
        impl $ty {
            pub(crate) fn save_with(
                &self,
                w: &mut $crate::snapshot::SnapWriter,
                $ctx: impl FnOnce(&mut $crate::snapshot::SnapWriter),
            ) {
                let $this = self;
                $crate::snapshot::snapshot_state!(@save $ty $this w $($body)*);
            }
            pub(crate) fn load_with(
                &mut self,
                r: &mut $crate::snapshot::SnapReader,
                $ctx: impl FnOnce(&mut $crate::snapshot::SnapReader)
                    -> $crate::snapshot::SnapResult<()>,
            ) -> $crate::snapshot::SnapResult<()> {
                let $this = self;
                $crate::snapshot::snapshot_state!(@load $ty $this r $($body)*)
            }
        }
    };
    (@save $ty:ident $this:ident $w:ident $(tag: $tag:literal,)? saved: [$($saved:tt)*],
        derived: [$($derived:ident),* $(,)?], $(after_load: $hook:ident,)?) => {
        $crate::snapshot::snapshot_state!(@classify $ty $this [$($derived)*] $($saved)*);
        $($w.tag($tag);)?
        $crate::snapshot::snapshot_state!(@put $this $w $($saved)*);
    };
    (@load $ty:ident $this:ident $r:ident $(tag: $tag:literal,)? saved: [$($saved:tt)*],
        derived: [$($derived:ident),* $(,)?], $(after_load: $hook:ident,)?) => {{
        $($r.tag($tag)?;)?
        $crate::snapshot::snapshot_state!(@get $this $r $($saved)*);
        $($this.$hook($r)?;)?
        Ok(())
    }};

    // Every field is saved or derived: a destructure with no `..`.
    (@classify $ty:ident $this:ident [$($acc:ident)*]) => {
        let $ty { $($acc: _),* } = $this;
    };
    (@classify $ty:ident $this:ident [$($acc:ident)*] $c:ident () $(, $($rest:tt)*)?) => {
        $crate::snapshot::snapshot_state!(@classify $ty $this [$($acc)*] $($($rest)*)?);
    };
    (@classify $ty:ident $this:ident [$($acc:ident)*] $f:ident $(: $via:expr)? $(, $($rest:tt)*)?) => {
        $crate::snapshot::snapshot_state!(@classify $ty $this [$($acc)* $f] $($($rest)*)?);
    };
    (@classify $ty:ident $this:ident [$($acc:ident)*] [$($g:ident),+] : $via:expr $(, $($rest:tt)*)?) => {
        $crate::snapshot::snapshot_state!(@classify $ty $this [$($acc)* $($g)+] $($($rest)*)?);
    };

    (@put $this:ident $w:ident) => {};
    (@put $this:ident $w:ident $c:ident () $(, $($rest:tt)*)?) => {
        $c($w);
        $crate::snapshot::snapshot_state!(@put $this $w $($($rest)*)?);
    };
    (@put $this:ident $w:ident $f:ident : $via:expr $(, $($rest:tt)*)?) => {
        $crate::snapshot::Field::put(&$via, &$this.$f, $w);
        $crate::snapshot::snapshot_state!(@put $this $w $($($rest)*)?);
    };
    (@put $this:ident $w:ident $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::State::save(&$this.$f, $w);
        $crate::snapshot::snapshot_state!(@put $this $w $($($rest)*)?);
    };
    (@put $this:ident $w:ident [$($g:ident),+] : $via:expr $(, $($rest:tt)*)?) => {
        $crate::snapshot::Field::put(&$via, $this, $w);
        $crate::snapshot::snapshot_state!(@put $this $w $($($rest)*)?);
    };

    (@get $this:ident $r:ident) => {};
    (@get $this:ident $r:ident $c:ident () $(, $($rest:tt)*)?) => {
        $c($r)?;
        $crate::snapshot::snapshot_state!(@get $this $r $($($rest)*)?);
    };
    (@get $this:ident $r:ident $f:ident : $via:expr $(, $($rest:tt)*)?) => {
        $crate::snapshot::Field::load(&$via, &mut $this.$f, $r)?;
        $crate::snapshot::snapshot_state!(@get $this $r $($($rest)*)?);
    };
    (@get $this:ident $r:ident $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::State::load(&mut $this.$f, $r)?;
        $crate::snapshot::snapshot_state!(@get $this $r $($($rest)*)?);
    };
    (@get $this:ident $r:ident [$($g:ident),+] : $via:expr $(, $($rest:tt)*)?) => {
        $crate::snapshot::Field::load(&$via, &mut *$this, $r)?;
        $crate::snapshot::snapshot_state!(@get $this $r $($($rest)*)?);
    };
}

pub(crate) use {codec, snapshot_state};

/// A [`State`] element, for the sequence adapters.
pub(crate) struct Nested;

impl<S: State> Field<S> for Nested {
    fn put(&self, v: &S, w: &mut SnapWriter) {
        v.save(w);
    }
    fn load(&self, v: &mut S, r: &mut SnapReader) -> SnapResult<()> {
        v.load(r)
    }
}

/// A part that exists only under some configuration (a fault plan,
/// journey tracing): a presence byte, then its state. The image and the
/// machine must agree on whether it exists.
pub(crate) struct Present(pub &'static str);

impl<S: State> Field<Option<Box<S>>> for Present {
    fn put(&self, v: &Option<Box<S>>, w: &mut SnapWriter) {
        w.opt(v.as_deref(), |w, s| s.save(w));
    }
    fn load(&self, v: &mut Option<Box<S>>, r: &mut SnapReader) -> SnapResult<()> {
        load_present(r, v.as_deref_mut(), self.0)
    }
}

/// Read a presence byte and, when it and `slot` agree that the part
/// exists, its state into `slot`; a disagreement is an error naming
/// `what`.
pub(crate) fn load_present<S: State>(
    r: &mut SnapReader,
    slot: Option<&mut S>,
    what: impl std::fmt::Display,
) -> SnapResult<()> {
    match (r.bool()?, slot) {
        (true, Some(s)) => s.load(r),
        (false, None) => Ok(()),
        (had, _) => {
            let [snap, here] = if had {
                ["present", "absent"]
            } else {
                ["absent", "present"]
            };
            Err(r.err_mismatch(&format!(
                "{what} is {snap} in the snapshot but {here} on this machine"
            )))
        }
    }
}

/// A value the restoring machine already holds and the image repeats (a
/// module's port, the allocation tables): compared, not overwritten.
pub(crate) struct Echo(pub &'static str);

impl<T: Codec + PartialEq> Field<T> for Echo {
    fn put(&self, v: &T, w: &mut SnapWriter) {
        v.put(w);
    }
    fn load(&self, v: &mut T, r: &mut SnapReader) -> SnapResult<()> {
        if T::get(r)? != *v {
            let what = self.0;
            return Err(r.err_mismatch(&format!(
                "{what}: the snapshot's differs from this machine's"
            )));
        }
        Ok(())
    }
}

/// An array the configuration sized, as one slice whose stored length
/// must match.
pub(crate) struct Fixed;

macro_rules! fixed_slices {
    ($($t:ty => $put:ident, $load:ident;)*) => {$(
        impl Field<Vec<$t>> for Fixed {
            fn put(&self, v: &Vec<$t>, w: &mut SnapWriter) {
                w.$put(v);
            }
            fn load(&self, v: &mut Vec<$t>, r: &mut SnapReader) -> SnapResult<()> {
                r.$load(v)
            }
        }
    )*};
}

fixed_slices! {
    u8 => bytes, bytes_into;
    u32 => u32s, u32s_into;
    u64 => u64s, u64s_into;
    bool => bools, bools_into;
}

/// The first `n` words of a fixed-capacity array, `n` set by the
/// configuration.
pub(crate) struct Prefix(pub usize);

impl<const K: usize> Field<[u64; K]> for Prefix {
    fn put(&self, v: &[u64; K], w: &mut SnapWriter) {
        w.u64s(&v[..self.0]);
    }
    fn load(&self, v: &mut [u64; K], r: &mut SnapReader) -> SnapResult<()> {
        r.u64s_into(&mut v[..self.0])
    }
}

/// A `u64` array of any length, as one slice.
pub(crate) struct Words;

impl Field<Vec<u64>> for Words {
    fn put(&self, v: &Vec<u64>, w: &mut SnapWriter) {
        w.u64s(v);
    }
    fn load(&self, v: &mut Vec<u64>, r: &mut SnapReader) -> SnapResult<()> {
        *v = r.u64s()?;
        Ok(())
    }
}

/// A run of [`Record`]s of any length (`N` follows from the element).
pub(crate) struct Records<const N: usize>;

impl<T: Record<N>, const N: usize> Field<Vec<T>> for Records<N> {
    fn put(&self, v: &Vec<T>, w: &mut SnapWriter) {
        w.records(v.iter(), T::record);
    }
    fn load(&self, v: &mut Vec<T>, r: &mut SnapReader) -> SnapResult<()> {
        r.records_into(v, T::from_record)
    }
}

/// A sequence the configuration sized, each element restored in place
/// through the element adapter.
pub(crate) struct Exact<A>(pub A);

impl<T, A: Field<T>> Field<Vec<T>> for Exact<A> {
    fn put(&self, v: &Vec<T>, w: &mut SnapWriter) {
        w.seq(v.iter(), |w, x| self.0.put(x, w));
    }
    fn load(&self, v: &mut Vec<T>, r: &mut SnapReader) -> SnapResult<()> {
        r.seq_exact(v.len(), |r, i| self.0.load(&mut v[i], r))
    }
}

/// A sequence of any length, each element read through the element
/// adapter in place: into the element already there, or a default one.
pub(crate) struct Seq<A>(pub A);

impl<T: Default, A: Field<T>> Field<Vec<T>> for Seq<A> {
    fn put(&self, v: &Vec<T>, w: &mut SnapWriter) {
        w.seq(v.iter(), |w, x| self.0.put(x, w));
    }
    fn load(&self, v: &mut Vec<T>, r: &mut SnapReader) -> SnapResult<()> {
        let n = r.len()?;
        v.truncate(n);
        for i in 0..n {
            if i == v.len() {
                v.push(T::default());
            }
            self.0.load(&mut v[i], r)?;
        }
        Ok(())
    }
}

/// Every element of an array that is part of the machine's shape (which
/// the `MACH` echo checked), in order, with no count.
pub(crate) struct All<A>(pub A);

impl<T, A: Field<T>> Field<Vec<T>> for All<A> {
    fn put(&self, v: &Vec<T>, w: &mut SnapWriter) {
        v.iter().for_each(|x| self.0.put(x, w));
    }
    fn load(&self, v: &mut Vec<T>, r: &mut SnapReader) -> SnapResult<()> {
        v.iter_mut().try_for_each(|x| self.0.load(x, r))
    }
}

/// A hash map or set in sorted key order, so the bytes do not depend on
/// the hash order.
pub(crate) struct Sorted;

impl<K: Codec + Ord + Hash, V: Codec, S: BuildHasher + Default> Field<HashMap<K, V, S>> for Sorted {
    fn put(&self, v: &HashMap<K, V, S>, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = v.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.seq(entries.into_iter(), |w, (k, v)| {
            k.put(w);
            v.put(w);
        });
    }
    fn load(&self, v: &mut HashMap<K, V, S>, r: &mut SnapReader) -> SnapResult<()> {
        *v = r.seq(<(K, V)>::get)?.into_iter().collect();
        Ok(())
    }
}

impl<K: Codec + Ord + Hash, S: BuildHasher + Default> Field<HashSet<K, S>> for Sorted {
    fn put(&self, v: &HashSet<K, S>, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = v.iter().collect();
        keys.sort_unstable();
        w.seq(keys.into_iter(), |w, k| k.put(w));
    }
    fn load(&self, v: &mut HashSet<K, S>, r: &mut SnapReader) -> SnapResult<()> {
        *v = r.seq(K::get)?.into_iter().collect();
        Ok(())
    }
}

impl Record<12> for (Cycle, u32) {
    fn record(&self) -> [u8; 12] {
        RecordWriter::new().u64(self.0 .0).u32(self.1).done()
    }
    fn from_record(mut f: RecordReader<'_, 12>) -> Result<Self, &'static str> {
        Ok((Cycle(f.u64()), f.u32()))
    }
}

impl Record<16> for (u64, Cycle) {
    fn record(&self) -> [u8; 16] {
        RecordWriter::new().u64(self.0).u64(self.1 .0).done()
    }
    fn from_record(mut f: RecordReader<'_, 16>) -> Result<Self, &'static str> {
        Ok((f.u64(), Cycle(f.u64())))
    }
}
