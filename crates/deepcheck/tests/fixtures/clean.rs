// Clean fixture: near-miss patterns that must NOT fire the lock pass.
// A `self.table.write()` or `mb.recv_match(..)` in a comment or a string
// is no acquisition and no call.

use parking_lot::{Mutex, RwLock};

pub struct Shard {
    state: Mutex<u64>, // lock-order: 10
    // lock-order: 20
    table: RwLock<Vec<u64>>,
}

impl Shard {
    pub fn new() -> Shard {
        // Struct-literal initializers are no declarations.
        Shard {
            state: Mutex::new(0),
            table: RwLock::new(Vec::new()),
        }
    }

    pub fn ascending(&self) -> u64 {
        let s = self.state.lock();
        let t = self.table.read();
        let n = t.len() as u64 + *s;
        drop(t);
        drop(s);
        n
    }

    pub fn receive_after_release(&self, mb: &Mailbox) {
        let s = self.state.lock();
        drop(s);
        let env = mb.recv_match(1, None, None);
        drop(env);
    }

    pub fn temporary_guard_ends_with_its_statement(&self, mb: &Mailbox) {
        *self.state.lock() += 1;
        let env = mb.recv_match(1, None, None);
        drop(env);
    }

    pub fn opaque_text(&self) -> usize {
        let note = "self.table.write(); self.state.lock(); mb.recv_match(1, None, None)";
        note.len()
    }
}
