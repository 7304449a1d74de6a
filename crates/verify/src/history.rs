//! Operation histories.

use bytes::Bytes;
use harmonia_types::{OpKind, RecordedOp};

/// What an operation did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action {
    /// A (blind) write of the value.
    Write(Bytes),
    /// A read observing the value (`None` = key absent).
    Read(Option<Bytes>),
}

/// One completed operation, with its real-time window.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpRecord {
    /// Issuing client (for diagnostics only).
    pub client: u32,
    /// Key operated on.
    pub key: Bytes,
    /// Invocation timestamp (any monotone clock; virtual time in the sim).
    pub invoke: u64,
    /// Completion timestamp; must be ≥ `invoke`.
    pub complete: u64,
    /// The operation.
    pub action: Action,
}

impl OpRecord {
    /// Convenience write record.
    pub fn write(
        client: u32,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
        invoke: u64,
        complete: u64,
    ) -> Self {
        OpRecord {
            client,
            key: key.into(),
            invoke,
            complete,
            action: Action::Write(value.into()),
        }
    }

    /// Convenience read record.
    pub fn read(
        client: u32,
        key: impl Into<Bytes>,
        result: Option<Bytes>,
        invoke: u64,
        complete: u64,
    ) -> Self {
        OpRecord {
            client,
            key: key.into(),
            invoke,
            complete,
            action: Action::Read(result),
        }
    }

    /// A completed operation as client `client` recorded it.
    pub(crate) fn recorded(client: u32, r: &RecordedOp) -> Self {
        OpRecord {
            client,
            key: r.key.clone(),
            invoke: r.invoked.nanos(),
            complete: r.completed.nanos(),
            action: match r.kind {
                OpKind::Write => Action::Write(r.value.clone().unwrap_or_default()),
                OpKind::Read => Action::Read(r.result.clone()),
            },
        }
    }
}
