//! Protocol layers above the raw path model.
//!
//! * [`icmp`] — ping and traceroute, the instruments of the paper's
//!   measurement campaign;
//! * [`iot`] — application-protocol overhead models (MQTT / AMQP / CoAP),
//!   quantifying the paper's "extra 5–8 ms" (Section III-A).

pub mod icmp;
pub mod iot;

pub use icmp::Pinger;
pub use iot::IotProtocol;
