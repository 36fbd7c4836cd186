//! The wire protocol's op set, declared once.
//!
//! The `ops!` table below is the only place an op's wire name is
//! spelled. It expands to [`Op`] and its lookups, and every consumer keys
//! off that enum: `Session::dispatch` matches an `Op` exhaustively, so a
//! row without an arm does not compile; every [`Client`](crate::Client)
//! request names its `Op`, and the integration suite drives each entry of
//! [`Op::ALL`] through its client method in an exhaustive `match`; a unit
//! test below holds the `## Operation index` of `docs/WIRE_PROTOCOL.md`
//! to [`Op::ALL`], row by row.

/// What an op touches (the `kind` column of the operation index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Reads the pinned snapshot or a stored result; takes no lock.
    Read,
    /// Mutates the live database under the write lock.
    Write,
    /// Changes the session's own state: its pinned epoch or its handles.
    Session,
    /// Ends the connection or the server.
    Lifecycle,
}

impl OpKind {
    /// The kind as the operation index spells it.
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Session => "session",
            OpKind::Lifecycle => "lifecycle",
        }
    }
}

/// One row per op, in dispatch order: doc line, variant = wire name, kind.
macro_rules! ops {
    ($($(#[doc = $doc:literal])+ $op:ident = $name:literal, $kind:ident;)+) => {
        /// A wire-protocol op: the request's `"op"` field.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Op {
            $($(#[doc = $doc])+ $op,)+
        }

        impl Op {
            /// Every op, in dispatch order (the operation index's order).
            pub const ALL: &'static [Op] = &[$(Op::$op),+];

            /// The op's wire name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Op::$op => $name,)+
                }
            }

            /// What the op touches.
            pub const fn kind(self) -> OpKind {
                match self {
                    $(Op::$op => OpKind::$kind,)+
                }
            }
        }
    };
}

ops! {
    /// Liveness probe; answers the pinned epoch.
    Ping = "ping", Read;
    /// Table names in the pinned snapshot.
    Tables = "tables", Read;
    /// Materialized view names in the pinned snapshot.
    Views = "views", Read;
    /// Runs a SQL script on the live database.
    Sql = "sql", Write;
    /// Materializes a delta-maintained view on the live database.
    Materialize = "materialize", Write;
    /// Reads a maintained view from the pinned snapshot.
    View = "view", Read;
    /// Drops a materialized view on the live database.
    DropView = "drop_view", Write;
    /// Deletion propagation through every base table and view.
    DbDeleteTokens = "db_delete_tokens", Write;
    /// Re-pins the newest epoch and re-prepares the held statements.
    Refresh = "refresh", Session;
    /// Plans a statement once and returns its handle.
    Prepare = "prepare", Session;
    /// Runs a prepared statement.
    Execute = "execute", Read;
    /// One-shot prepare and execute.
    Query = "query", Read;
    /// ℕ-valuates a stored result.
    Valuate = "valuate", Read;
    /// Deletion propagation on a stored result.
    DeleteTokens = "delete_tokens", Read;
    /// Security reading of a stored result (paper Example 3.5).
    Clearance = "clearance", Read;
    /// Releases a statement or result handle.
    Close = "close", Session;
    /// Closes this connection.
    Bye = "bye", Lifecycle;
    /// Drains and stops the server.
    Shutdown = "shutdown", Lifecycle;
}

impl Op {
    /// The op with wire name `name`: a scan of [`Op::ALL`].
    pub fn parse(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(op, kind)` cells of the `## Operation index` rows, in order.
    fn index_rows(doc: &str) -> Vec<(&str, &str)> {
        doc.lines()
            .skip_while(|l| l.trim_end() != "## Operation index")
            .skip(1)
            .take_while(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut cells = l.strip_prefix('|')?.split('|').map(str::trim);
                let op = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
                Some((op, cells.next()?))
            })
            .collect()
    }

    #[test]
    fn the_operation_index_lists_every_op_in_dispatch_order() {
        let doc = include_str!("../../../docs/WIRE_PROTOCOL.md");
        let ops: Vec<(&str, &str)> = Op::ALL
            .iter()
            .map(|op| (op.name(), op.kind().name()))
            .collect();
        assert_eq!(index_rows(doc), ops);
    }

    #[test]
    fn parse_is_the_inverse_of_name() {
        for &op in Op::ALL {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
        assert_eq!(Op::parse("PING"), None);
        assert_eq!(Op::parse(""), None);
    }
}
