//! Identifier newtypes.

use std::fmt;

/// Identifies a processing node (a leaf of the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Construct from a raw node index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw node index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(3);
        assert_eq!(n.index(), 3);
        assert_eq!(NodeId::from(3), n);
        assert_eq!(n.to_string(), "n3");
    }
}
