#include "vkernel/types.h"

namespace nv::os {

std::string_view errno_name(Errno e) noexcept {
  switch (e) {
    case Errno::kOk: return "OK";
    case Errno::kEPERM: return "EPERM";
    case Errno::kENOENT: return "ENOENT";
    case Errno::kEINTR: return "EINTR";
    case Errno::kEBADF: return "EBADF";
    case Errno::kEACCES: return "EACCES";
    case Errno::kEFAULT: return "EFAULT";
    case Errno::kEEXIST: return "EEXIST";
    case Errno::kENOTDIR: return "ENOTDIR";
    case Errno::kEISDIR: return "EISDIR";
    case Errno::kEINVAL: return "EINVAL";
    case Errno::kEMFILE: return "EMFILE";
    case Errno::kENOSYS: return "ENOSYS";
    case Errno::kEAGAIN: return "EAGAIN";
    case Errno::kEPIPE: return "EPIPE";
    case Errno::kENOTCONN: return "ENOTCONN";
    case Errno::kECONNREFUSED: return "ECONNREFUSED";
    case Errno::kEADDRINUSE: return "EADDRINUSE";
    case Errno::kENOTSOCK: return "ENOTSOCK";
    case Errno::kERANGE: return "ERANGE";
    case Errno::kEFBIG: return "EFBIG";
  }
  return "E?";
}

}  // namespace nv::os
