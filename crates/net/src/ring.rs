//! Consistent-hash tenant ring: which replica group owns which tenant.
//!
//! The ring is the one routing truth the whole partitioned fleet shares —
//! servers load it to scope ingest and answer ownership, clients load it to
//! pick a replica group, and the scatter path walks it to reach every
//! group.  Placement is classic consistent hashing: every group projects
//! [`RingConfig::vnodes`] virtual points onto a 64-bit circle via FNV-1a
//! plus a 64-bit avalanche finalizer, a tenant hashes onto the same circle,
//! and the first point at or after the tenant's hash owns it.  The hash is
//! fully deterministic (no per-process seeding), so two processes that
//! parse the same [`RingConfig`] compute byte-identical placements — the
//! property the `wrong_owner` protocol and the cross-process ring test
//! (`opaq-cli`'s `tests/serve_process.rs`) rely on.  (The finalizer matters: raw FNV leaves sequential names like
//! `tenant-0..tenant-9` clustered in one arc; see [`mix`].)
//!
//! Rebalance is minimal-disruption by construction: adding a group inserts
//! only that group's virtual points, so only tenants whose hash falls in
//! the newly claimed arcs move (≈ `1/(N+1)` of them for N existing groups);
//! removing a group deletes only its points, so only *its* tenants are
//! redistributed and nothing else moves.  The property suite in
//! `tests/ring_properties.rs` pins balance, determinism, and both
//! disruption bounds.

use crate::json::{write_escaped, Json};
use crate::{NetError, NetResult};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes — the one hash everything on the ring uses.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// 64-bit avalanche finalizer (the murmur3 `fmix64` constants) applied on
/// top of FNV-1a.  Raw FNV barely diffuses its final byte: two keys that
/// differ only in the last character land within `9 * FNV_PRIME ≈ 2^43` of
/// each other on a 2^64 circle, so sequential tenant names ("tenant-0",
/// "tenant-1", …) would all fall in one arc and one group would own every
/// one of them.  The finalizer spreads that cluster across the whole
/// circle while staying exactly as deterministic as FNV itself.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Position of a key on the ring circle.
fn ring_point(bytes: impl IntoIterator<Item = u8>) -> u64 {
    mix(fnv1a(bytes))
}

/// One replica group: a name and the addresses of its replicas (which
/// replicate internally via `--peer` sync).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// Unique group name (the value of the `x-opaq-owner` header).
    pub name: String,
    /// Replica addresses of the group, in preference order.
    pub addrs: Vec<String>,
}

/// The serializable description of a tenant hash ring.
///
/// The wire form is the JSON object `opaq serve --ring FILE` loads:
///
/// ```json
/// {"vnodes":128,"groups":[{"name":"group-0","addrs":["127.0.0.1:4000"]}]}
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Virtual points each group projects onto the circle.  More points
    /// mean tighter balance; 128 keeps the spread within a few percent.
    pub vnodes: u32,
    /// The replica groups sharing the ring.
    pub groups: Vec<GroupConfig>,
}

impl RingConfig {
    /// A ring over `groups` with the default 128 virtual nodes per group.
    pub fn new(groups: Vec<GroupConfig>) -> Self {
        Self {
            vnodes: 128,
            groups,
        }
    }

    /// Parse the JSON wire form.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] on malformed JSON or a missing/mistyped
    /// field; structural rules (unique names, non-empty groups) are checked
    /// by [`HashRing::new`].
    pub fn parse(text: &str) -> NetResult<Self> {
        let parsed =
            Json::parse(text).map_err(|e| NetError::InvalidConfig(format!("ring config: {e}")))?;
        let vnodes = parsed
            .get("vnodes")
            .and_then(Json::as_u64)
            .ok_or_else(|| NetError::InvalidConfig("ring config needs integer vnodes".into()))?;
        let vnodes = u32::try_from(vnodes)
            .map_err(|_| NetError::InvalidConfig("ring vnodes out of range".into()))?;
        let Some(groups) = parsed.get("groups").and_then(Json::as_array) else {
            return Err(NetError::InvalidConfig(
                "ring config needs a groups array".into(),
            ));
        };
        let groups = groups
            .iter()
            .map(|item| {
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        NetError::InvalidConfig("ring group needs a string name".into())
                    })?
                    .to_owned();
                let addrs = item
                    .get("addrs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| {
                        NetError::InvalidConfig("ring group needs an addrs array".into())
                    })?
                    .iter()
                    .map(|a| {
                        a.as_str().map(str::to_owned).ok_or_else(|| {
                            NetError::InvalidConfig("ring group addrs must be strings".into())
                        })
                    })
                    .collect::<NetResult<Vec<String>>>()?;
                Ok(GroupConfig { name, addrs })
            })
            .collect::<NetResult<Vec<GroupConfig>>>()?;
        Ok(Self { vnodes, groups })
    }

    /// Render the JSON wire form (what [`RingConfig::parse`] reads back).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"vnodes\":");
        out.push_str(&self.vnodes.to_string());
        out.push_str(",\"groups\":[");
        for (i, group) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &group.name);
            out.push_str(",\"addrs\":[");
            for (j, addr) in group.addrs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, addr);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The config with one more group — the add-side rebalance input.
    #[must_use]
    pub fn with_group(mut self, group: GroupConfig) -> Self {
        self.groups.push(group);
        self
    }

    /// The config without the named group — the remove-side rebalance input.
    #[must_use]
    pub fn without_group(mut self, name: &str) -> Self {
        self.groups.retain(|g| g.name != name);
        self
    }
}

/// A built ring: the sorted virtual-point table placement queries walk.
#[derive(Debug, Clone)]
pub struct HashRing {
    config: RingConfig,
    /// `(point hash, group index)`, sorted by hash (ties by group index,
    /// which the construction order makes deterministic).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build the ring from its config.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for zero vnodes, no groups, a group with
    /// no addresses, or duplicate/empty/NUL-containing group names (the
    /// vnode key uses NUL as an unambiguous separator).
    pub fn new(config: RingConfig) -> NetResult<Self> {
        if config.vnodes == 0 {
            return Err(NetError::InvalidConfig(
                "a ring needs at least one virtual node per group".into(),
            ));
        }
        if config.groups.is_empty() {
            return Err(NetError::InvalidConfig(
                "a ring needs at least one group".into(),
            ));
        }
        for (i, group) in config.groups.iter().enumerate() {
            if group.name.is_empty() || group.name.contains('\0') {
                return Err(NetError::InvalidConfig(
                    "ring group names must be non-empty and NUL-free".into(),
                ));
            }
            if group.addrs.is_empty() {
                return Err(NetError::InvalidConfig(format!(
                    "ring group {:?} has no replica addresses",
                    group.name
                )));
            }
            if config.groups[..i].iter().any(|g| g.name == group.name) {
                return Err(NetError::InvalidConfig(format!(
                    "duplicate ring group name {:?}",
                    group.name
                )));
            }
        }
        let mut points = Vec::with_capacity(config.groups.len() * config.vnodes as usize);
        for (index, group) in config.groups.iter().enumerate() {
            for vnode in 0..config.vnodes {
                // Key = name bytes + NUL + vnode LE bytes: names cannot
                // contain NUL, so distinct (name, vnode) pairs never collide
                // on key bytes.
                let key = group
                    .name
                    .bytes()
                    .chain(std::iter::once(0u8))
                    .chain(u64::from(vnode).to_le_bytes());
                points.push((ring_point(key), index));
            }
        }
        points.sort_unstable();
        Ok(Self { config, points })
    }

    /// The config this ring was built from.
    pub fn config(&self) -> &RingConfig {
        &self.config
    }

    /// The groups, in config order (stable indices for [`Self::owner_index`]).
    pub fn groups(&self) -> &[GroupConfig] {
        &self.config.groups
    }

    /// Index of the named group, if present.
    pub fn group_index(&self, name: &str) -> Option<usize> {
        self.config.groups.iter().position(|g| g.name == name)
    }

    /// Index of the group owning `tenant`: the first virtual point at or
    /// after the tenant's hash, wrapping at the top of the circle.
    pub fn owner_index(&self, tenant: &str) -> usize {
        let h = ring_point(tenant.bytes());
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, group) = self.points[at % self.points.len()];
        group
    }

    /// The group owning `tenant`.
    pub fn owner(&self, tenant: &str) -> &GroupConfig {
        &self.config.groups[self.owner_index(tenant)]
    }
}

/// One server's view of the ring: the shared [`HashRing`] plus which group
/// this process belongs to.  [`crate::ServerConfigBuilder::ring`] attaches
/// it; the router consults it for ownership answers and the scatter hook
/// walks its peer groups.
#[derive(Debug, Clone)]
pub struct RingMembership {
    ring: HashRing,
    group: usize,
}

impl RingMembership {
    /// Membership of `group` in `ring`.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] if the ring has no group by that name.
    pub fn new(ring: HashRing, group: &str) -> NetResult<Self> {
        let Some(index) = ring.group_index(group) else {
            return Err(NetError::InvalidConfig(format!(
                "group {group:?} is not on the ring"
            )));
        };
        Ok(Self { ring, group: index })
    }

    /// The shared ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// This process's group name.
    pub fn group_name(&self) -> &str {
        &self.ring.groups()[self.group].name
    }

    /// Does this process's group own `tenant`?
    pub fn owns(&self, tenant: &str) -> bool {
        self.ring.owner_index(tenant) == self.group
    }

    /// The group owning `tenant` (this group or a peer).
    pub fn owner(&self, tenant: &str) -> &GroupConfig {
        self.ring.owner(tenant)
    }

    /// Every group except this one — the scatter fan-out set.
    pub fn peer_groups(&self) -> impl Iterator<Item = &GroupConfig> {
        let local = self.group;
        self.ring
            .groups()
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != local)
            .map(|(_, g)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(names: &[&str]) -> RingConfig {
        RingConfig::new(
            names
                .iter()
                .map(|n| GroupConfig {
                    name: (*n).to_string(),
                    addrs: vec![format!("127.0.0.1:{}", 4000 + n.len())],
                })
                .collect(),
        )
    }

    #[test]
    fn wire_form_round_trips() {
        let mut cfg = config(&["alpha", "beta"]);
        cfg.vnodes = 64;
        cfg.groups[0].addrs.push("127.0.0.1:9999".into());
        let parsed = RingConfig::parse(&cfg.to_json()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn malformed_configs_are_rejected() {
        assert!(RingConfig::parse("{").is_err());
        assert!(RingConfig::parse("{\"groups\":[]}").is_err(), "no vnodes");
        assert!(RingConfig::parse("{\"vnodes\":8}").is_err(), "no groups");
        assert!(
            RingConfig::parse("{\"vnodes\":8,\"groups\":[{\"name\":\"a\"}]}").is_err(),
            "group without addrs"
        );
    }

    #[test]
    fn structural_validation() {
        let mut zero = config(&["a"]);
        zero.vnodes = 0;
        assert!(HashRing::new(zero).is_err());
        assert!(HashRing::new(RingConfig::new(Vec::new())).is_err());
        assert!(
            HashRing::new(config(&["a", "a"])).is_err(),
            "duplicate name"
        );
        let mut empty_addr = config(&["a"]);
        empty_addr.groups[0].addrs.clear();
        assert!(HashRing::new(empty_addr).is_err());
        assert!(HashRing::new(config(&[""])).is_err(), "empty name");
    }

    #[test]
    fn ownership_is_total_and_deterministic() {
        let ring = HashRing::new(config(&["alpha", "beta", "gamma"]));
        let ring = ring.unwrap();
        let again = HashRing::new(config(&["alpha", "beta", "gamma"])).unwrap();
        for i in 0..500 {
            let tenant = format!("tenant-{i}");
            let owner = ring.owner_index(&tenant);
            assert!(owner < 3);
            assert_eq!(owner, again.owner_index(&tenant), "non-deterministic");
        }
    }

    #[test]
    fn membership_answers_ownership() {
        let ring = HashRing::new(config(&["alpha", "beta"])).unwrap();
        let m = RingMembership::new(ring.clone(), "alpha").unwrap();
        assert_eq!(m.group_name(), "alpha");
        assert_eq!(m.peer_groups().count(), 1);
        for i in 0..64 {
            let tenant = format!("tenant-{i}");
            assert_eq!(m.owns(&tenant), ring.owner(&tenant).name == "alpha");
            assert_eq!(m.owner(&tenant).name, ring.owner(&tenant).name);
        }
        assert!(RingMembership::new(ring, "ghost").is_err());
    }

    #[test]
    fn add_and_remove_rebalance_only_what_they_must() {
        let tenants: Vec<String> = (0..2000).map(|i| format!("tenant-{i}")).collect();
        let two = HashRing::new(config(&["alpha", "beta"])).unwrap();
        let three = HashRing::new(config(&["alpha", "beta"]).with_group(GroupConfig {
            name: "gamma".into(),
            addrs: vec!["127.0.0.1:5000".into()],
        }))
        .unwrap();
        for t in &tenants {
            let before = &two.owner(t).name;
            let after = &three.owner(t).name;
            // Adding gamma may claim a tenant, but never shuffles a tenant
            // between the surviving groups.
            assert!(
                after == before || after == "gamma",
                "{t}: {before}->{after}"
            );
        }
        let back = HashRing::new(three.config().clone().without_group("gamma")).unwrap();
        for t in &tenants {
            assert_eq!(two.owner(t).name, back.owner(t).name, "{t}");
        }
    }
}
