//! Differential property for the registry's name index: random
//! sequences of `register`, `id_of` and login by name run against a
//! `BTreeMap` model of the names registered so far.
//!
//! Names are drawn from a few stems, most with a number after them, so
//! that duplicates are common, names share prefixes (`u`, `u1`, `u10`,
//! `us`, `user`), the empty name turns up, and stems hold two-, three-
//! and four-byte UTF-8 characters. A case makes 400 to 600 operations, four
//! in seven of them registrations, so it registers well over the 129
//! names at which the index has doubled six times from its first eight
//! slots.
//!
//! Each answer must match the model: the id of every registration and
//! lookup, the user a login binds, and the `DuplicateName`,
//! `NoSuchUser` and `BadPassword` errors. At the end every registered
//! name must still resolve to its id.

use std::collections::BTreeMap;

use bips_core::registry::{AccessRights, Registry, RegistryError, UserId};
use bt_baseband::BdAddr;
use proptest::prelude::*;

/// Stems names are built from: the empty name, ASCII prefixes of one
/// another, and multi-byte characters.
const STEMS: [&str; 7] = ["", "u", "us", "user", "é", "中文", "🛰"];

/// A name from one draw: a stem, and a number below 100 after it in
/// about four draws of five.
fn name(draw: u64) -> String {
    let stem = STEMS[(draw % STEMS.len() as u64) as usize];
    match (draw >> 8) % 128 {
        n if n < 100 => format!("{stem}{n}"),
        _ => stem.to_string(),
    }
}

/// One of three passwords, from one draw.
fn password(draw: u64) -> String {
    format!("pw{}", draw % 3)
}

/// Replays `ops` on a fresh registry against the model, name → (id,
/// password).
fn replay(ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut reg = Registry::new();
    let mut model: BTreeMap<String, (u64, String)> = BTreeMap::new();
    let mut next_addr = 1;
    for &(kind, a, b) in ops {
        let name = name(a);
        let password = password(b);
        match kind {
            // Register, taken names included.
            0..=3 => {
                let expected = match model.get(&name) {
                    Some(_) => Err(RegistryError::DuplicateName),
                    None => {
                        let id = model.len() as u64;
                        model.insert(name.clone(), (id, password.clone()));
                        Ok(id)
                    }
                };
                let got = reg
                    .register(&name, &password, AccessRights::open())
                    .map(UserId::value);
                prop_assert_eq!(got, expected, "register({:?})", name);
            }
            // Look the name up.
            4 => {
                let expected = model.get(&name).map(|&(id, _)| id);
                prop_assert_eq!(
                    reg.id_of(&name).map(UserId::value),
                    expected,
                    "id_of({:?})",
                    name
                );
            }
            // Log in by name with one of the passwords, then out again.
            _ => {
                let expected = match model.get(&name) {
                    None => Err(RegistryError::NoSuchUser),
                    Some((_, pw)) if *pw != password => Err(RegistryError::BadPassword),
                    Some(&(id, _)) => Ok(id),
                };
                next_addr += 1;
                let got = reg
                    .login(&name, &password, BdAddr::new(next_addr))
                    .map(UserId::value);
                prop_assert_eq!(got.clone(), expected, "login({:?})", name);
                if let Ok(id) = got {
                    let user = reg.user_of_addr(BdAddr::new(next_addr));
                    prop_assert_eq!(user.map(UserId::value), Some(id));
                    prop_assert!(reg.logout(user.unwrap()).is_ok(), "logout of {}", id);
                }
            }
        }
    }
    prop_assert_eq!(reg.num_users(), model.len());
    for (name, &(id, _)) in &model {
        prop_assert_eq!(reg.id_of(name).map(UserId::value), Some(id), "{:?}", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The name index agrees with the model after every operation.
    #[test]
    fn name_index_matches_model(
        ops in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 400..600),
    ) {
        replay(&ops)?;
    }
}
