//! Per-process name spaces with mounts.
//!
//! "Every process starts up with a built-in name space. Usually, this
//! name space is inherited from a parent process ... The name space
//! consists of a local name space which names objects local to the
//! process, and mounted name spaces which name objects external to the
//! process. The mount point of a mounted name space is a local object
//! with a connection to a name space in another process. Name resolution
//! in mounted name spaces takes place by making name-lookup requests
//! through the connection to the other process." (§4)

use std::collections::HashMap;

use crate::maillon::ObjectRef;
use pegasus_sim::time::Ns;

/// Identifier of a name space within a [`NameWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameSpaceId(pub usize);

/// A binding in a name space's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// A leaf object.
    Object(ObjectRef),
    /// An internal directory node (index into the space's dir table).
    Dir(usize),
    /// A mount: resolution continues in another space, through a
    /// connection.
    Mount(NameSpaceId),
}

/// Resolution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A component was not bound.
    NotFound(String),
    /// A leaf object appeared mid-path.
    NotADirectory(String),
    /// The path named a directory, not an object.
    IsADirectory(String),
    /// Mount chain exceeded the hop limit (a mount loop).
    TooManyHops,
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::NotFound(c) => write!(f, "{c}: not found"),
            NameError::NotADirectory(c) => write!(f, "{c}: not a directory"),
            NameError::IsADirectory(c) => write!(f, "{c}: is a directory"),
            NameError::TooManyHops => write!(f, "mount loop"),
        }
    }
}

impl std::error::Error for NameError {}

#[derive(Debug, Default, Clone)]
struct Dir {
    entries: HashMap<String, Binding>,
}

/// One process's name space.
#[derive(Debug, Default, Clone)]
struct NameSpace {
    dirs: Vec<Dir>, // dirs[0] is the root
}

impl NameSpace {
    fn new() -> Self {
        NameSpace {
            dirs: vec![Dir::default()],
        }
    }
}

/// The outcome of a resolution, with its cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The object found.
    pub object: ObjectRef,
    /// Path components walked (all spaces).
    pub components: usize,
    /// Mount crossings (remote lookup requests).
    pub mount_hops: usize,
    /// Modelled resolution cost.
    pub cost: Ns,
}

/// All the name spaces of a simulated system plus the cost model.
#[derive(Debug)]
pub struct NameWorld {
    spaces: Vec<NameSpace>,
    /// Cost of resolving one component locally (a hash lookup).
    pub local_component_cost: Ns,
    /// Cost of a lookup request through a mount connection (an IDC or
    /// RPC round trip, depending on where the server lives).
    pub mount_hop_cost: Ns,
}

impl Default for NameWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl NameWorld {
    /// Creates an empty world with 1994-plausible costs: 300 ns per
    /// local component, 25 µs per mount crossing.
    pub fn new() -> Self {
        NameWorld {
            spaces: Vec::new(),
            local_component_cost: 300,
            mount_hop_cost: 25_000,
        }
    }

    /// Creates a fresh, empty name space (a root process).
    pub fn create_space(&mut self) -> NameSpaceId {
        self.spaces.push(NameSpace::new());
        NameSpaceId(self.spaces.len() - 1)
    }

    /// Creates a child space inheriting (copying) the parent's bindings
    /// — "usually, this name space is inherited from a parent process".
    /// Mounts stay shared: both spaces reach the same target spaces.
    pub fn fork_space(&mut self, parent: NameSpaceId) -> NameSpaceId {
        let copy = self.spaces[parent.0].clone();
        self.spaces.push(copy);
        NameSpaceId(self.spaces.len() - 1)
    }

    fn split(path: &str) -> Vec<&str> {
        path.split('/').filter(|c| !c.is_empty()).collect()
    }

    /// Walks to (and creates) the directory for `components`, returning
    /// its index within `space`.
    fn ensure_dir(&mut self, space: NameSpaceId, components: &[&str]) -> Result<usize, NameError> {
        let ns = &mut self.spaces[space.0];
        let mut cur = 0usize;
        for &c in components {
            let next = match ns.dirs[cur].entries.get(c) {
                Some(Binding::Dir(d)) => *d,
                Some(_) => return Err(NameError::NotADirectory(c.to_string())),
                None => {
                    ns.dirs.push(Dir::default());
                    let d = ns.dirs.len() - 1;
                    ns.dirs[cur].entries.insert(c.to_string(), Binding::Dir(d));
                    d
                }
            };
            cur = next;
        }
        Ok(cur)
    }

    /// Binds `object` at `path` in `space`, creating directories.
    pub fn bind(
        &mut self,
        space: NameSpaceId,
        path: &str,
        object: ObjectRef,
    ) -> Result<(), NameError> {
        let comps = Self::split(path);
        let (&last, dirs) = comps
            .split_last()
            .ok_or_else(|| NameError::IsADirectory("/".into()))?;
        let dir = self.ensure_dir(space, dirs)?;
        self.spaces[space.0].dirs[dir]
            .entries
            .insert(last.to_string(), Binding::Object(object));
        Ok(())
    }

    /// Mounts `target` space at `path` in `space` — "the mount point ...
    /// is a local object with a connection to a name space in another
    /// process". The conventional use is `mount(space, "/global",
    /// shared)`.
    pub fn mount(
        &mut self,
        space: NameSpaceId,
        path: &str,
        target: NameSpaceId,
    ) -> Result<(), NameError> {
        let comps = Self::split(path);
        let (&last, dirs) = comps
            .split_last()
            .ok_or_else(|| NameError::IsADirectory("/".into()))?;
        let dir = self.ensure_dir(space, dirs)?;
        self.spaces[space.0].dirs[dir]
            .entries
            .insert(last.to_string(), Binding::Mount(target));
        Ok(())
    }

    /// Resolves `path` in `space`, returning the object and the cost
    /// breakdown.
    pub fn resolve(&self, space: NameSpaceId, path: &str) -> Result<Resolution, NameError> {
        let comps = Self::split(path);
        let mut res = Resolution {
            object: ObjectRef(0),
            components: 0,
            mount_hops: 0,
            cost: 0,
        };
        let mut space = space;
        let mut dir = 0usize;
        let mut i = 0usize;
        while i < comps.len() {
            if res.mount_hops > 32 {
                return Err(NameError::TooManyHops);
            }
            let c = comps[i];
            res.components += 1;
            res.cost += self.local_component_cost;
            match self.spaces[space.0].dirs[dir].entries.get(c) {
                None => return Err(NameError::NotFound(c.to_string())),
                Some(Binding::Dir(d)) => {
                    dir = *d;
                    i += 1;
                }
                Some(Binding::Object(o)) => {
                    if i + 1 != comps.len() {
                        return Err(NameError::NotADirectory(c.to_string()));
                    }
                    res.object = *o;
                    return Ok(res);
                }
                Some(Binding::Mount(target)) => {
                    // Cross the connection: the rest of the path resolves
                    // in the target space's root.
                    res.mount_hops += 1;
                    res.cost += self.mount_hop_cost;
                    space = *target;
                    dir = 0;
                    i += 1;
                }
            }
        }
        Err(NameError::IsADirectory(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_resolve_local() {
        let mut w = NameWorld::new();
        let s = w.create_space();
        w.bind(s, "/dev/camera", ObjectRef(42)).unwrap();
        let r = w.resolve(s, "/dev/camera").unwrap();
        assert_eq!(r.object, ObjectRef(42));
        assert_eq!(r.components, 2);
        assert_eq!(r.mount_hops, 0);
        assert_eq!(r.cost, 600);
    }

    #[test]
    fn short_local_names_cheapest() {
        // The section's core argument: local names near the root resolve
        // fastest; remote names cost mount hops.
        let mut w = NameWorld::new();
        let local = w.create_space();
        let global = w.create_space();
        w.bind(local, "/fb", ObjectRef(1)).unwrap();
        w.bind(global, "/org/cam/cl/atm/camera3", ObjectRef(2))
            .unwrap();
        w.mount(local, "/global", global).unwrap();
        let near = w.resolve(local, "/fb").unwrap();
        let far = w.resolve(local, "/global/org/cam/cl/atm/camera3").unwrap();
        assert!(
            far.cost > 50 * near.cost,
            "near {} far {}",
            near.cost,
            far.cost
        );
        assert_eq!(far.mount_hops, 1);
    }

    #[test]
    fn resolution_continues_in_mounted_space() {
        let mut w = NameWorld::new();
        let a = w.create_space();
        let b = w.create_space();
        w.bind(b, "/srv/files", ObjectRef(7)).unwrap();
        w.mount(a, "/remote", b).unwrap();
        let r = w.resolve(a, "/remote/srv/files").unwrap();
        assert_eq!(r.object, ObjectRef(7));
        assert_eq!(r.mount_hops, 1);
    }

    #[test]
    fn chained_mounts_accumulate_hops() {
        let mut w = NameWorld::new();
        let a = w.create_space();
        let b = w.create_space();
        let c = w.create_space();
        w.bind(c, "/x", ObjectRef(9)).unwrap();
        w.mount(b, "/c", c).unwrap();
        w.mount(a, "/b", b).unwrap();
        let r = w.resolve(a, "/b/c/x").unwrap();
        assert_eq!(r.object, ObjectRef(9));
        assert_eq!(r.mount_hops, 2);
        assert_eq!(r.cost, 3 * 300 + 2 * 25_000);
    }

    #[test]
    fn same_name_different_objects_per_space() {
        // "It is not global in the sense ... that one name identifies
        // the same object anywhere."
        let mut w = NameWorld::new();
        let s1 = w.create_space();
        let s2 = w.create_space();
        w.bind(s1, "/dev/audio", ObjectRef(1)).unwrap();
        w.bind(s2, "/dev/audio", ObjectRef(2)).unwrap();
        assert_ne!(
            w.resolve(s1, "/dev/audio").unwrap().object,
            w.resolve(s2, "/dev/audio").unwrap().object
        );
    }

    #[test]
    fn fork_inherits_then_diverges() {
        let mut w = NameWorld::new();
        let parent = w.create_space();
        w.bind(parent, "/tools/cc", ObjectRef(5)).unwrap();
        let child = w.fork_space(parent);
        assert_eq!(w.resolve(child, "/tools/cc").unwrap().object, ObjectRef(5));
        // Child rebinds without affecting the parent.
        w.bind(child, "/tools/cc", ObjectRef(6)).unwrap();
        assert_eq!(w.resolve(parent, "/tools/cc").unwrap().object, ObjectRef(5));
        assert_eq!(w.resolve(child, "/tools/cc").unwrap().object, ObjectRef(6));
    }

    #[test]
    fn errors_reported() {
        let mut w = NameWorld::new();
        let s = w.create_space();
        w.bind(s, "/a/b", ObjectRef(1)).unwrap();
        assert_eq!(
            w.resolve(s, "/a/zz").unwrap_err(),
            NameError::NotFound("zz".into())
        );
        assert_eq!(
            w.resolve(s, "/a/b/c").unwrap_err(),
            NameError::NotADirectory("b".into())
        );
        assert_eq!(
            w.resolve(s, "/a").unwrap_err(),
            NameError::IsADirectory("/a".into())
        );
    }

    #[test]
    fn mount_loop_detected() {
        let mut w = NameWorld::new();
        let a = w.create_space();
        let b = w.create_space();
        w.mount(a, "/b", b).unwrap();
        w.mount(b, "/b", b).unwrap();
        let path = format!("/b{}", "/b".repeat(40));
        assert_eq!(w.resolve(a, &path).unwrap_err(), NameError::TooManyHops);
    }

    #[test]
    fn global_by_convention() {
        // "there is no reason why one convention could not be the use of
        // a subtree named /global for global names."
        let mut w = NameWorld::new();
        let global = w.create_space();
        w.bind(global, "/printers/lw2", ObjectRef(3)).unwrap();
        let p1 = w.create_space();
        let p2 = w.create_space();
        w.mount(p1, "/global", global).unwrap();
        w.mount(p2, "/global", global).unwrap();
        assert_eq!(
            w.resolve(p1, "/global/printers/lw2").unwrap().object,
            w.resolve(p2, "/global/printers/lw2").unwrap().object,
        );
    }
}
