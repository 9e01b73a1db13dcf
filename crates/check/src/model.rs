//! The model implementation of the `skyweb_hidden_db` sync facade: every
//! operation is a yield point of the [`explore`](crate::explore) scheduler.
//!
//! Instantiating a concurrency core (clock cache, sequence reserver) with
//! [`ModelSync`] instead of the production `StdSync` turns each of its
//! atomic accesses and mutex acquisitions into a scheduling decision the
//! explorer enumerates. Outside an exploration the yield
//! points are no-ops, so model-typed cores still behave like ordinary
//! sequential structures in plain unit tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use skyweb_hidden_db::sync::{FacadeAtomicU64, FacadeMutex, SyncFacade};

use crate::explore::{new_obj_id, release, yield_op, OpDesc, OpKind};

/// A 64-bit counter whose loads and read-modify-writes are scheduling
/// yield points.
pub struct ModelAtomicU64 {
    obj: usize,
    cell: AtomicU64,
}

impl FacadeAtomicU64 for ModelAtomicU64 {
    fn new(v: u64) -> Self {
        ModelAtomicU64 {
            obj: new_obj_id(),
            cell: AtomicU64::new(v),
        }
    }

    fn load(&self) -> u64 {
        yield_op(OpDesc {
            obj: self.obj,
            kind: OpKind::Read,
        });
        self.cell.load(Ordering::SeqCst)
    }

    fn store(&self, v: u64) {
        yield_op(OpDesc {
            obj: self.obj,
            kind: OpKind::Write,
        });
        self.cell.store(v, Ordering::SeqCst)
    }

    fn fetch_add(&self, v: u64) -> u64 {
        yield_op(OpDesc {
            obj: self.obj,
            kind: OpKind::Write,
        });
        self.cell.fetch_add(v, Ordering::SeqCst)
    }

    fn fetch_sub(&self, v: u64) -> u64 {
        yield_op(OpDesc {
            obj: self.obj,
            kind: OpKind::Write,
        });
        self.cell.fetch_sub(v, Ordering::SeqCst)
    }
}

/// Releases the model-level hold on a mutex when the access closure exits
/// (including by unwind, so an aborted run cannot wedge its siblings).
struct HeldGuard {
    obj: usize,
}

impl Drop for HeldGuard {
    fn drop(&mut self) {
        release(self.obj);
    }
}

/// A mutex whose acquisition is a scheduling yield point; a thread asking
/// for a mutex the schedule has not released yet is simply not runnable.
pub struct ModelMutex<T> {
    obj: usize,
    data: Mutex<T>,
}

impl<T: Send> FacadeMutex<T> for ModelMutex<T> {
    fn new(v: T) -> Self {
        ModelMutex {
            obj: new_obj_id(),
            data: Mutex::new(v),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        yield_op(OpDesc {
            obj: self.obj,
            kind: OpKind::Lock,
        });
        let _held = HeldGuard { obj: self.obj };
        // The scheduler guarantees exclusivity, so the inner lock is
        // always uncontended; it exists to hand out `&mut T` safely.
        let mut guard = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

/// The explorer's sync facade.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSync;

impl SyncFacade for ModelSync {
    type AtomicU64 = ModelAtomicU64;
    type Mutex<T: Send> = ModelMutex<T>;
}
