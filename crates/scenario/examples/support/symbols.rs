//! What an address in this process names: its memory map, from
//! `/proc/self/maps`, and the executable's text symbols, from
//! `nm -C -n`. Shared (by `#[path]`) between the `sigprof` and
//! `livebytes` examples, which record return addresses while they run
//! and name them afterwards. x86-64 Linux only, like the frame walks
//! that use it.

use std::process::Command;

/// One line of `/proc/self/maps`.
struct Mapping {
    lo: usize,
    hi: usize,
    offset: usize,
    exec: bool,
    path: String,
}

fn mappings() -> Vec<Mapping> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (range, perms, offset) = (f.next()?, f.next()?, f.next()?);
            let path = f.nth(2).unwrap_or("").to_string();
            let (lo, hi) = range.split_once('-')?;
            let hex = |s| usize::from_str_radix(s, 16).ok();
            Some(Mapping {
                lo: hex(lo)?,
                hi: hex(hi)?,
                offset: hex(offset)?,
                exec: perms.contains('x'),
                path,
            })
        })
        .collect()
}

/// The top of the mapping that holds this thread's stack: the bound a
/// frame-pointer walk on it must stay under.
pub fn stack_top() -> usize {
    let local = 0u8;
    let here = std::ptr::addr_of!(local) as usize;
    mappings()
        .into_iter()
        .find(|m| m.lo <= here && here < m.hi)
        .map(|m| m.hi)
        .expect("the stack is mapped")
}

/// The `pegasus_*` crate a symbol belongs to, if any.
pub fn crate_of(symbol: &str) -> Option<&str> {
    let at = symbol.find("pegasus_")?;
    let name = &symbol[at..];
    let end = name
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    Some(&name[..end])
}

/// This executable's code and the names of its addresses.
pub struct Symbols {
    maps: Vec<Mapping>,
    /// Where the executable's code is mapped: `[text.0, text.1)`.
    pub text: (usize, usize),
    /// Where the executable is loaded, which `nm`'s addresses count
    /// from.
    base: usize,
    /// Text symbols by link-time address.
    syms: Vec<(usize, String)>,
}

impl Symbols {
    /// Reads the map and runs `nm` on the executable (binutils on PATH).
    pub fn load() -> Self {
        let exe = std::fs::read_link("/proc/self/exe").expect("procfs");
        let exe = exe.to_string_lossy().into_owned();
        let maps = mappings();
        let mine = || maps.iter().filter(|m| m.path == exe);
        let base = mine().find(|m| m.offset == 0).map(|m| m.lo);
        let text = mine().find(|m| m.exec).map(|m| (m.lo, m.hi));
        let out = Command::new("nm")
            .args(["-C", "-n", &exe])
            .output()
            .expect("binutils `nm` on PATH");
        let syms = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let (addr, rest) = line.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                matches!(kind, "t" | "T" | "w" | "W")
                    .then(|| Some((usize::from_str_radix(addr, 16).ok()?, name.to_string())))?
            })
            .collect();
        Symbols {
            text: text.expect("this executable's code is mapped"),
            base: base.expect("this executable is mapped"),
            maps,
            syms,
        }
    }

    /// The symbol holding `pc`, or `[library]` for code outside this
    /// executable.
    pub fn name(&self, pc: usize) -> String {
        if self.text.0 <= pc && pc < self.text.1 {
            let at = self.syms.partition_point(|s| s.0 <= pc - self.base);
            return match at.checked_sub(1) {
                Some(i) => self.syms[i].1.clone(),
                None => "[unknown]".to_string(),
            };
        }
        match self.maps.iter().find(|m| m.lo <= pc && pc < m.hi) {
            Some(m) if !m.path.is_empty() => {
                format!("[{}]", m.path.rsplit('/').next().unwrap_or(&m.path))
            }
            _ => "[unknown]".to_string(),
        }
    }
}
