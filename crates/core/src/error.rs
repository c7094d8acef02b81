//! Error type of the learn-to-route pipeline.

use l2r_road_network::NetworkError;

/// Errors produced while fitting or querying an [`crate::pipeline::L2r`]
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum L2rError {
    /// No trajectories were supplied; the pipeline cannot learn anything.
    EmptyTrajectorySet,
    /// The trajectory set produced no regions (e.g. every trajectory was
    /// trivial).
    NoRegions,
    /// A training trajectory is not drivable on the network: a vertex past
    /// it, or a hop that is not an edge.  The model would store and serve
    /// such paths, so the fit refuses them.
    InvalidTrajectory {
        /// Position of the trajectory in the training set.
        index: usize,
        /// What [`l2r_road_network::Path::validate`] reported.
        error: NetworkError,
    },
    /// A lower-level road-network error.
    Network(NetworkError),
}

impl std::fmt::Display for L2rError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L2rError::EmptyTrajectorySet => write!(f, "no trajectories supplied"),
            L2rError::NoRegions => write!(f, "clustering produced no regions"),
            L2rError::InvalidTrajectory { index, error } => {
                write!(f, "training trajectory {index} is not drivable: {error}")
            }
            L2rError::Network(e) => write!(f, "road-network error: {e}"),
        }
    }
}

impl std::error::Error for L2rError {}

impl From<NetworkError> for L2rError {
    fn from(e: NetworkError) -> Self {
        L2rError::Network(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use l2r_road_network::VertexId;

    #[test]
    fn display_and_conversion() {
        assert!(L2rError::EmptyTrajectorySet
            .to_string()
            .contains("no trajectories"));
        let e: L2rError = NetworkError::UnknownVertex(VertexId(3)).into();
        assert!(matches!(e, L2rError::Network(_)));
        assert!(e.to_string().contains("road-network"));
    }
}
