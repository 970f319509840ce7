// Listening-socket setup for the HTTP front end: bind-address validation,
// SO_REUSEADDR, port-0 ephemeral binding.
#pragma once

#include <string>

namespace maps::net {

/// Create a listening TCP socket bound to `bind_address:port`.
///
/// `bind_address` must be a literal IPv4 dotted-quad (e.g. "127.0.0.1",
/// "0.0.0.0"); anything else throws MapsError naming the bad value — no DNS,
/// so a typo fails fast instead of binding somewhere surprising. Port 0
/// binds an ephemeral port (read it back with listener_port). Throws
/// MapsError on any socket/bind/listen failure.
int make_listener(const std::string& bind_address, int port, int backlog);

/// The locally bound port of a listening socket (resolves port-0 binds).
int listener_port(int fd);

/// Best-effort O_NONBLOCK toggle; throws MapsError on fcntl failure.
void set_nonblocking(int fd);

}  // namespace maps::net
