// Ready-made FleetJobs: the guest workloads a fleet dispatches onto its
// pooled sessions.
//
//   httpd_request_stream()  serve mini-httpd in the session, replay a list
//                           of HTTP requests against its hub, report. The
//                           client runs as a fiber beside the variants, on
//                           the worker's thread (NVariantSystem::serve()).
//   ftpd_command_stream()   the same for mini-ftpd with a scripted control
//                           session (USER/PASS/RETR/SITE/...).
//   uid_churn()             a pure compute job — a guest that churns through
//                           privilege drop/restore cycles with uid_value
//                           checks; the bench workhorse (no sockets, so
//                           throughput measures the MVEE itself).
//
// Attack variants of the request builders reproduce the Chen-style
// non-control-data payloads (User-Agent overflow, SITE overrun) so the
// attack lab can poison a subset of fleet traffic.
#ifndef NV_FLEET_JOBS_H
#define NV_FLEET_JOBS_H

#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "httpd/config.h"
#include "httpd/mini_ftpd.h"

namespace nv::fleet::jobs {

/// One HTTP request in a stream.
struct HttpPlay {
  std::string path;
  std::map<std::string, std::string> headers;
};

/// `requests` GETs rotating across the default site's pages (all benign).
[[nodiscard]] std::vector<HttpPlay> normal_browse(unsigned requests);

/// The §4 attack stream: overflow the User-Agent header buffer (overwriting
/// the stored worker UID with canonical root), then trigger the privilege
/// restore via a protected request.
[[nodiscard]] std::vector<HttpPlay> uid_smash_attack(std::uint32_t header_buffer_size = 256);

/// Serve mini-httpd on the session, replay `plays` as its client, report.
[[nodiscard]] FleetJob httpd_request_stream(httpd::ServerConfig config,
                                            std::vector<HttpPlay> plays);

/// A benign scripted FTP session (login, fetch a file, quit).
[[nodiscard]] std::vector<std::string> ftp_normal_session();

/// The wu-ftpd-style attack script: SITE overrun smashing the stored session
/// UID, then REIN to make the daemon re-install it.
[[nodiscard]] std::vector<std::string> ftp_site_attack(std::uint32_t command_buffer_size = 128);

/// Serve mini-ftpd on the session, run one scripted control session, report.
[[nodiscard]] FleetJob ftpd_command_stream(httpd::FtpdConfig config,
                                           std::vector<std::string> commands);

/// Socket-free compute job: `rounds` privilege drop/check/restore cycles.
[[nodiscard]] FleetJob uid_churn(unsigned rounds);

}  // namespace nv::fleet::jobs

#endif  // NV_FLEET_JOBS_H
