//! Server runtime configuration, following the [`LemraConfig`] discipline:
//! every knob parsed strictly (a typo is a startup error naming the
//! variable, never a silent default) and testable through explicit values
//! without touching the process environment.

use crate::wire::DEFAULT_MAX_PAYLOAD;
use lemra_netflow::LemraConfig;

/// Environment variable: address the request listener binds
/// (default `127.0.0.1:7407`; port `0` asks the OS for a free port).
pub const LISTEN_ENV: &str = "LEMRA_LISTEN";

/// Environment variable: address the admin endpoint binds
/// (default `127.0.0.1:7408`; port `0` asks the OS for a free port).
pub const ADMIN_ENV: &str = "LEMRA_ADMIN";

/// Environment variable: bounded job-queue depth — the admission-control
/// watermark beyond which requests are shed with `Overloaded`
/// (positive integer; default 64).
pub const QUEUE_DEPTH_ENV: &str = "LEMRA_QUEUE_DEPTH";

/// Environment variable: default per-request deadline in milliseconds,
/// applied when a request carries no `timeout_ms` of its own
/// (positive integer; default 5000).
pub const REQ_TIMEOUT_ENV: &str = "LEMRA_REQ_TIMEOUT_MS";

/// Environment variable: maximum accepted payload length in bytes; larger
/// frames are refused with `TooLarge` before the payload is read
/// (positive integer; default 1 MiB).
pub const MAX_PAYLOAD_ENV: &str = "LEMRA_MAX_PAYLOAD";

/// A malformed server environment variable: the message names the variable,
/// the offending value and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// The server's startup configuration.
///
/// Built from the environment ([`ServerConfig::from_env`]) or explicitly by
/// the binary's flag parser, then handed to
/// [`Server::start`](crate::Server::start). The solver-side knobs
/// (`LEMRA_BACKEND`, `LEMRA_THREADS`) stay in [`LemraConfig`] — the
/// server only adds transport concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Request listener bind address.
    pub listen: String,
    /// Admin endpoint bind address.
    pub admin: String,
    /// Worker-thread count; defaults to `LemraConfig`'s effective
    /// parallelism (so `LEMRA_THREADS` governs the pool size too).
    pub workers: usize,
    /// Bounded queue depth (admission-control watermark).
    pub queue_depth: usize,
    /// Default per-request deadline for requests without `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Maximum accepted payload length in bytes.
    pub max_payload: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:7407".to_string(),
            admin: "127.0.0.1:7408".to_string(),
            workers: LemraConfig::get().worker_count(usize::MAX),
            queue_depth: 64,
            default_timeout_ms: 5000,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    env: &str,
    value: &str,
    what: &str,
) -> Result<T, ConfigError> {
    value
        .parse::<T>()
        .ok()
        .filter(|n| *n > T::from(0u8))
        .ok_or_else(|| ConfigError {
            reason: format!("{env}=`{value}` is not a positive {what}"),
        })
}

impl ServerConfig {
    /// Builds a configuration from the environment ([`LISTEN_ENV`],
    /// [`ADMIN_ENV`], [`QUEUE_DEPTH_ENV`], [`REQ_TIMEOUT_ENV`],
    /// [`MAX_PAYLOAD_ENV`]); unset variables fall back to the defaults.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending variable when one is set but
    /// malformed.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_vars(
            std::env::var(LISTEN_ENV).ok().as_deref(),
            std::env::var(ADMIN_ENV).ok().as_deref(),
            std::env::var(QUEUE_DEPTH_ENV).ok().as_deref(),
            std::env::var(REQ_TIMEOUT_ENV).ok().as_deref(),
            std::env::var(MAX_PAYLOAD_ENV).ok().as_deref(),
        )
    }

    /// [`from_env`](Self::from_env) over explicit values (`None` = unset),
    /// so parsing is testable without racy process-environment mutation.
    ///
    /// # Errors
    ///
    /// Same as [`from_env`](Self::from_env).
    pub fn from_vars(
        listen: Option<&str>,
        admin: Option<&str>,
        queue_depth: Option<&str>,
        timeout_ms: Option<&str>,
        max_payload: Option<&str>,
    ) -> Result<Self, ConfigError> {
        let defaults = Self::default();
        let listen = match listen {
            Some(addr) if addr.contains(':') => addr.to_string(),
            Some(addr) => {
                return Err(ConfigError {
                    reason: format!("{LISTEN_ENV}=`{addr}` is not a host:port address"),
                })
            }
            None => defaults.listen,
        };
        let admin = match admin {
            Some(addr) if addr.contains(':') => addr.to_string(),
            Some(addr) => {
                return Err(ConfigError {
                    reason: format!("{ADMIN_ENV}=`{addr}` is not a host:port address"),
                })
            }
            None => defaults.admin,
        };
        let queue_depth = queue_depth
            .map(|v| positive::<usize>(QUEUE_DEPTH_ENV, v, "queue depth"))
            .transpose()?
            .unwrap_or(defaults.queue_depth);
        let default_timeout_ms = timeout_ms
            .map(|v| positive::<u64>(REQ_TIMEOUT_ENV, v, "timeout in milliseconds"))
            .transpose()?
            .unwrap_or(defaults.default_timeout_ms);
        let max_payload = max_payload
            .map(|v| positive::<u32>(MAX_PAYLOAD_ENV, v, "payload cap in bytes"))
            .transpose()?
            .unwrap_or(defaults.max_payload);
        Ok(Self {
            listen,
            admin,
            queue_depth,
            default_timeout_ms,
            max_payload,
            ..defaults
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_values() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.listen, "127.0.0.1:7407");
        assert_eq!(cfg.admin, "127.0.0.1:7408");
        assert_eq!(cfg.queue_depth, 64);
        assert_eq!(cfg.default_timeout_ms, 5000);
        assert_eq!(cfg.max_payload, DEFAULT_MAX_PAYLOAD);
        assert!(cfg.workers >= 1);
    }

    #[test]
    fn from_vars_parses_each_knob() {
        let cfg = ServerConfig::from_vars(
            Some("0.0.0.0:9000"),
            Some("127.0.0.1:0"),
            Some("8"),
            Some("250"),
            Some("4096"),
        )
        .unwrap();
        assert_eq!(cfg.listen, "0.0.0.0:9000");
        assert_eq!(cfg.admin, "127.0.0.1:0");
        assert_eq!(cfg.queue_depth, 8);
        assert_eq!(cfg.default_timeout_ms, 250);
        assert_eq!(cfg.max_payload, 4096);
        let unset = ServerConfig::from_vars(None, None, None, None, None).unwrap();
        assert_eq!(unset, ServerConfig::default());
    }

    #[test]
    fn malformed_knobs_are_errors_naming_the_variable() {
        let err = ServerConfig::from_vars(Some("localhost"), None, None, None, None).unwrap_err();
        assert!(err.to_string().contains(LISTEN_ENV), "{err}");
        let err = ServerConfig::from_vars(None, None, Some("0"), None, None).unwrap_err();
        assert!(err.to_string().contains(QUEUE_DEPTH_ENV), "{err}");
        let err = ServerConfig::from_vars(None, None, None, Some("soon"), None).unwrap_err();
        assert!(err.to_string().contains(REQ_TIMEOUT_ENV), "{err}");
        let err = ServerConfig::from_vars(None, None, None, None, Some("-1")).unwrap_err();
        assert!(err.to_string().contains(MAX_PAYLOAD_ENV), "{err}");
    }
}
