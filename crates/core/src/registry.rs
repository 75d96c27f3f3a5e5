//! User registration, passwords, access rights, login sessions (§2).
//!
//! *"An off-line procedure has been implemented for registering new BIPS
//! users. The procedure associates the name of a user with a user
//! identifier (userid). In this phase, a password and a set of access
//! rights are defined for enforcing security and privacy issues. …
//! logging in … defines a one-to-one correspondence between a userid and
//! the Bluetooth device address (BD_ADDR)."*
//!
//! Passwords are stored as salted, iterated FNV-1a digests. **This is a
//! documented stand-in**, not a cryptographic KDF — the paper does not
//! specify a scheme, and the simulation only needs the workflow
//! (register → login → bind userid ↔ BD_ADDR) to be faithful.
//!
//! A campus registry holds a million users, so registration makes no
//! heap object per user. Names sit back to back in one arena `String`,
//! each ending at an offset kept per user. A flat open-addressed index
//! (the crate's probing table, which the serving engine's address index
//! also uses) maps a name to its user:
//!
//! - Each slot holds the name's 32-bit tag and the user's index. The
//!   tag is FNV-1a over the name's bytes, finished with splitmix64. The
//!   hash is unkeyed, so a registry built from the same names lays out
//!   the same index.
//! - A lookup probes linearly from the tag's home slot. A slot whose tag
//!   matches is confirmed by comparing the name's bytes in the arena.
//! - The index doubles before its load passes 1/2. Each slot's tag
//!   fixes its new position, so growth never re-reads or re-hashes a
//!   name.
//! - Only [`Registry::register`], the off-line procedure, writes the
//!   index. A peer that sends names in a login or a query can probe it
//!   with any name, each probe bounded by the table length, but cannot
//!   shape the clusters it probes.

use std::collections::HashMap;
use std::fmt;

use bt_baseband::BdAddr;

use crate::probe::{splitmix64, ProbeSlot, ProbeTable};

/// A registered user's identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(u64);

impl UserId {
    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Who may locate a user, and whether the user may query others.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessRights {
    /// May this user issue location queries?
    pub may_query: bool,
    /// Who may locate this user.
    pub visibility: Visibility,
}

impl AccessRights {
    /// The common case: may query, locatable by everyone.
    pub fn open() -> AccessRights {
        AccessRights {
            may_query: true,
            visibility: Visibility::Everyone,
        }
    }

    /// May query others but cannot be located (e.g. a director).
    pub fn invisible() -> AccessRights {
        AccessRights {
            may_query: true,
            visibility: Visibility::Nobody,
        }
    }
}

/// Visibility policy of a user.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Visibility {
    /// Any logged-in user with query rights may locate them.
    #[default]
    Everyone,
    /// No one may locate them.
    Nobody,
    /// Only the listed users may locate them.
    Only(Vec<UserId>),
}

impl Visibility {
    /// Whether `querier` may locate a user with this policy.
    pub fn allows(&self, querier: UserId) -> bool {
        match self {
            Visibility::Everyone => true,
            Visibility::Nobody => false,
            Visibility::Only(list) => list.contains(&querier),
        }
    }
}

/// Errors from registration and login.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The user name is already registered.
    DuplicateName,
    /// Unknown user name.
    NoSuchUser,
    /// Wrong password.
    BadPassword,
    /// The device address is already bound to a logged-in user.
    AddressInUse,
    /// The user is already logged in from another device.
    AlreadyLoggedIn,
    /// The user is not logged in.
    NotLoggedIn,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            RegistryError::DuplicateName => "user name already registered",
            RegistryError::NoSuchUser => "no such user",
            RegistryError::BadPassword => "wrong password",
            RegistryError::AddressInUse => "device address already bound",
            RegistryError::AlreadyLoggedIn => "user already logged in",
            RegistryError::NotLoggedIn => "user not logged in",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RegistryError {}

#[derive(Debug, Clone)]
struct UserRecord {
    id: UserId,
    salt: u64,
    digest: u64,
    rights: AccessRights,
}

/// FNV-1a 64's offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64's prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over the salted password, iterated — a placeholder KDF
/// shape (salt + iteration), explicitly *not* cryptographic. Shared with
/// the sharded serving engine so the two login paths verify identically.
pub(crate) fn digest(salt: u64, password: &str) -> u64 {
    let mut h = FNV_OFFSET ^ salt;
    for _round in 0..16 {
        for b in password.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= salt.rotate_left(17);
    }
    h
}

/// A name's 32-bit tag: FNV-1a 64 over its bytes, finished with
/// splitmix64 so that names differing only in their last bytes still
/// land far apart, and cut to the high half.
fn name_tag(name: &str) -> u32 {
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (splitmix64(h) >> 32) as u32
}

/// One name-index slot: a name's tag and the index of its user.
#[derive(Debug, Clone, Copy)]
struct NameSlot {
    tag: u32,
    user: u32,
}

impl ProbeSlot for NameSlot {
    /// User indices stay below `u32::MAX` (see [`Registry::register`]).
    const EMPTY: NameSlot = NameSlot {
        tag: 0,
        user: u32::MAX,
    };

    #[inline]
    fn is_empty(&self) -> bool {
        self.user == u32::MAX
    }

    #[inline]
    fn home(&self) -> u64 {
        u64::from(self.tag)
    }
}

/// Every registered name in one arena, under a flat index from name to
/// user index. The tag of each name is passed in, so a test can give
/// every name the same one.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    /// The names, back to back in registration order.
    arena: String,
    /// `ends[i]`: where user `i`'s name ends in `arena`. It starts where
    /// user `i - 1`'s ends.
    ends: Vec<u32>,
    table: ProbeTable<NameSlot>,
}

impl NameIndex {
    /// User `user`'s name.
    fn name(&self, user: usize) -> Option<&str> {
        let start = match user.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => 0,
        };
        let end = *self.ends.get(user)?;
        self.arena.get(start as usize..end as usize)
    }

    /// Probes for `name`, whose tag is `tag`: `Ok` with the slot of the
    /// user registered under it, `Err` with the empty slot where it
    /// would go. The table is never full, so the probe always ends in a
    /// slot.
    fn probe(&self, name: &str, tag: u32) -> Option<Result<usize, usize>> {
        self.table.probe(u64::from(tag), |s| {
            s.tag == tag && self.name(s.user as usize) == Some(name)
        })
    }

    /// The index of the user registered as `name`.
    fn user_of(&self, name: &str, tag: u32) -> Option<usize> {
        let slot = self.probe(name, tag)?.ok()?;
        self.table.get(slot).map(|s| s.user as usize)
    }

    /// Adds `name` as the next user, in `vacant`, the empty slot where
    /// its [`probe`](NameIndex::probe) ended.
    ///
    /// # Panics
    ///
    /// Panics if `u32::MAX` users are already indexed, or if the names
    /// would pass `u32::MAX` bytes in all.
    fn push(&mut self, vacant: usize, name: &str, tag: u32) {
        let user = u32::try_from(self.ends.len())
            .ok()
            .filter(|&u| u != u32::MAX)
            .expect("user indices are 32-bit");
        let end = u32::try_from(self.arena.len() + name.len())
            .expect("registered names total under 4 GiB");
        self.arena.push_str(name);
        self.ends.push(end);
        self.table.insert(vacant, NameSlot { tag, user });
    }
}

/// The user registry plus live login sessions.
///
/// # Example
///
/// ```
/// use bips_core::registry::{AccessRights, Registry};
/// use bt_baseband::BdAddr;
///
/// let mut reg = Registry::new();
/// let alice = reg.register("alice", "s3cret", AccessRights::open()).unwrap();
/// let dev = BdAddr::new(0x1111);
/// reg.login("alice", "s3cret", dev).unwrap();
/// assert_eq!(reg.user_of_addr(dev), Some(alice));
/// assert_eq!(reg.addr_of_user(alice), Some(dev));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    users: Vec<UserRecord>,
    /// Every user's name, and the index from name to user.
    names: NameIndex,
    /// Live sessions: userid ↔ BD_ADDR is one-to-one while logged in.
    addr_to_user: HashMap<BdAddr, UserId>,
    user_to_addr: HashMap<UserId, BdAddr>,
    salt_state: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            salt_state: 0x9E37_79B9_7F4A_7C15,
            ..Registry::default()
        }
    }

    /// Registers a user (the paper's off-line procedure).
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateName`] if the name is taken.
    ///
    /// # Panics
    ///
    /// Panics if the registry already holds `u32::MAX` users, or if its
    /// names would pass `u32::MAX` bytes in all (the name index keeps
    /// 32-bit user indices and name offsets).
    pub fn register(
        &mut self,
        name: &str,
        password: &str,
        rights: AccessRights,
    ) -> Result<UserId, RegistryError> {
        let tag = name_tag(name);
        let Some(Err(vacant)) = self.names.probe(name, tag) else {
            return Err(RegistryError::DuplicateName);
        };
        // Deterministic salt stream (the simulation must be reproducible).
        self.salt_state = self
            .salt_state
            .rotate_left(13)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(1);
        let salt = self.salt_state;
        let id = UserId(self.users.len() as u64);
        self.names.push(vacant, name, tag);
        self.users.push(UserRecord {
            id,
            salt,
            digest: digest(salt, password),
            rights,
        });
        Ok(id)
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Resolves a user name.
    pub fn id_of(&self, name: &str) -> Option<UserId> {
        self.names
            .user_of(name, name_tag(name))
            .and_then(|i| self.users.get(i))
            .map(|u| u.id)
    }

    /// A user's access rights.
    pub fn rights_of(&self, id: UserId) -> Option<&AccessRights> {
        self.users.get(id.0 as usize).map(|u| &u.rights)
    }

    /// All registered user ids, in registration order (ids are dense:
    /// the i-th registered user has id `i`).
    pub fn ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().map(|u| u.id)
    }

    /// The full snapshot a serving engine needs for user `uid`:
    /// `(rights, salt, digest)`. One total lookup instead of three
    /// `Option`-returning calls that would each need a panic path.
    pub(crate) fn record_parts(&self, uid: u64) -> Option<(&AccessRights, u64, u64)> {
        self.users
            .get(uid as usize)
            .map(|u| (&u.rights, u.salt, u.digest))
    }

    /// Logs `name` in from device `addr`, establishing the one-to-one
    /// userid ↔ BD_ADDR correspondence.
    ///
    /// # Errors
    ///
    /// Fails on unknown user, wrong password, an address already bound,
    /// or a user already logged in elsewhere.
    pub fn login(
        &mut self,
        name: &str,
        password: &str,
        addr: BdAddr,
    ) -> Result<UserId, RegistryError> {
        let idx = self
            .names
            .user_of(name, name_tag(name))
            .ok_or(RegistryError::NoSuchUser)?;
        let rec = self.users.get(idx).ok_or(RegistryError::NoSuchUser)?;
        if digest(rec.salt, password) != rec.digest {
            return Err(RegistryError::BadPassword);
        }
        if self.addr_to_user.contains_key(&addr) {
            return Err(RegistryError::AddressInUse);
        }
        if self.user_to_addr.contains_key(&rec.id) {
            return Err(RegistryError::AlreadyLoggedIn);
        }
        self.addr_to_user.insert(addr, rec.id);
        self.user_to_addr.insert(rec.id, addr);
        Ok(rec.id)
    }

    /// Ends a user's session.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotLoggedIn`] if no session exists.
    pub fn logout(&mut self, id: UserId) -> Result<(), RegistryError> {
        match self.user_to_addr.remove(&id) {
            Some(addr) => {
                self.addr_to_user.remove(&addr);
                Ok(())
            }
            None => Err(RegistryError::NotLoggedIn),
        }
    }

    /// The user logged in from `addr`, if any.
    pub fn user_of_addr(&self, addr: BdAddr) -> Option<UserId> {
        self.addr_to_user.get(&addr).copied()
    }

    /// The device a user is logged in from, if any.
    pub fn addr_of_user(&self, id: UserId) -> Option<BdAddr> {
        self.user_to_addr.get(&id).copied()
    }

    /// Ends every live session (server crash recovery: registrations are
    /// durable, sessions are not).
    pub fn logout_all(&mut self) {
        self.addr_to_user.clear();
        self.user_to_addr.clear();
    }

    /// Whether `querier` may locate `target` (both by id): querier must
    /// hold query rights and the target's visibility must allow it.
    pub fn may_locate(&self, querier: UserId, target: UserId) -> bool {
        let Some(q) = self.rights_of(querier) else {
            return false;
        };
        let Some(t) = self.rights_of(target) else {
            return false;
        };
        q.may_query && t.visibility.allows(querier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(names: &[&str]) -> Registry {
        let mut r = Registry::new();
        for n in names {
            r.register(n, "pw", AccessRights::open()).unwrap();
        }
        r
    }

    #[test]
    fn register_login_bind_round_trip() {
        let mut r = reg_with(&["alice"]);
        let a = r.id_of("alice").unwrap();
        let dev = BdAddr::new(7);
        assert_eq!(r.login("alice", "pw", dev), Ok(a));
        assert_eq!(r.user_of_addr(dev), Some(a));
        assert_eq!(r.addr_of_user(a), Some(dev));
        r.logout(a).unwrap();
        assert_eq!(r.user_of_addr(dev), None);
        assert_eq!(r.logout(a), Err(RegistryError::NotLoggedIn));
    }

    #[test]
    fn wrong_password_rejected() {
        let mut r = reg_with(&["alice"]);
        assert_eq!(
            r.login("alice", "nope", BdAddr::new(1)),
            Err(RegistryError::BadPassword)
        );
        assert_eq!(
            r.login("bob", "pw", BdAddr::new(1)),
            Err(RegistryError::NoSuchUser)
        );
    }

    #[test]
    fn bindings_are_one_to_one() {
        let mut r = reg_with(&["alice", "bob"]);
        let dev = BdAddr::new(42);
        r.login("alice", "pw", dev).unwrap();
        // Same device, different user.
        assert_eq!(r.login("bob", "pw", dev), Err(RegistryError::AddressInUse));
        // Same user, different device.
        assert_eq!(
            r.login("alice", "pw", BdAddr::new(43)),
            Err(RegistryError::AlreadyLoggedIn)
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = reg_with(&["alice"]);
        assert_eq!(
            r.register("alice", "x", AccessRights::open()),
            Err(RegistryError::DuplicateName)
        );
    }

    #[test]
    fn digests_differ_by_salt_and_password() {
        let mut r = Registry::new();
        let _ = r.register("a", "same", AccessRights::open()).unwrap();
        let _ = r.register("b", "same", AccessRights::open()).unwrap();
        assert_ne!(r.users[0].digest, r.users[1].digest, "salts must differ");
        assert_ne!(digest(1, "x"), digest(1, "y"));
    }

    #[test]
    fn visibility_policies() {
        let mut r = Registry::new();
        let alice = r.register("alice", "pw", AccessRights::open()).unwrap();
        let boss = r.register("boss", "pw", AccessRights::invisible()).unwrap();
        let friend = r
            .register(
                "friend",
                "pw",
                AccessRights {
                    may_query: true,
                    visibility: Visibility::Only(vec![alice]),
                },
            )
            .unwrap();
        let lurker = r
            .register(
                "lurker",
                "pw",
                AccessRights {
                    may_query: false,
                    visibility: Visibility::Everyone,
                },
            )
            .unwrap();
        assert!(r.may_locate(alice, friend), "allow-listed");
        assert!(!r.may_locate(boss, friend), "not on the list");
        assert!(!r.may_locate(alice, boss), "invisible target");
        assert!(!r.may_locate(lurker, alice), "no query rights");
        assert!(r.may_locate(boss, alice), "invisible may still query");
    }

    #[test]
    fn logout_all_clears_sessions_but_keeps_users() {
        let mut r = reg_with(&["alice", "bob"]);
        r.login("alice", "pw", BdAddr::new(1)).unwrap();
        r.login("bob", "pw", BdAddr::new(2)).unwrap();
        r.logout_all();
        assert_eq!(r.user_of_addr(BdAddr::new(1)), None);
        assert_eq!(r.addr_of_user(r.id_of("bob").unwrap()), None);
        // Users remain registered and can log back in.
        assert!(r.login("alice", "pw", BdAddr::new(1)).is_ok());
    }

    /// Every name gets the same tag, so only the byte comparison in the
    /// arena tells names apart: the empty name, names that are prefixes
    /// of one another and multi-byte names each resolve to their own
    /// user. The 73 names double the table five times, all in one
    /// cluster.
    #[test]
    fn one_tag_for_every_name_leaves_the_bytes_to_tell_names_apart() {
        fn same_tag(_: &str) -> u32 {
            0x5EED
        }
        let mut names: Vec<String> = ["", "a", "ab", "abc", "b", "é", "e\u{301}", "中", "中文"]
            .map(String::from)
            .to_vec();
        names.extend((0..64).map(|i| format!("user{i}")));
        let mut index = NameIndex::default();
        for (i, name) in names.iter().enumerate() {
            let Some(Err(vacant)) = index.probe(name, same_tag(name)) else {
                panic!("{name:?} found before it was added");
            };
            index.push(vacant, name, same_tag(name));
            for (j, earlier) in names.iter().enumerate().take(i + 1) {
                assert_eq!(
                    index.user_of(earlier, same_tag(earlier)),
                    Some(j),
                    "{earlier:?}"
                );
            }
        }
        for absent in ["abcd", "c", "e", "中文字", "user", "user64", "user1 "] {
            assert_eq!(index.user_of(absent, same_tag(absent)), None, "{absent:?}");
        }
    }

    #[test]
    fn ids_and_names_round_trip() {
        let r = reg_with(&["x", "y", "z"]);
        let ids: Vec<UserId> = ["x", "y", "z"]
            .iter()
            .map(|n| r.id_of(n).unwrap())
            .collect();
        assert_eq!(ids, vec![UserId(0), UserId(1), UserId(2)]);
        assert_eq!(r.id_of("nope"), None);
        assert_eq!(r.num_users(), 3);
    }
}
