/**
 * @file
 * Memory request type shared by the memory controller, the cache
 * hierarchy, and the Hetero-DMR mode controller.
 */

#ifndef HDMR_DRAM_REQUEST_HH
#define HDMR_DRAM_REQUEST_HH

#include <cstdint>

#include "util/units.hh"

namespace hdmr::dram
{

using util::Tick;

/**
 * A 64-byte block request to the memory system.  Which ranks serve it
 * follows from its address through the controller's rank policy; a
 * finished read is reported to the controller's completion sink.
 */
struct MemRequest
{
    std::uint64_t address = 0;
    Tick arrival = 0;
    bool isPrefetch = false;
};

} // namespace hdmr::dram

#endif // HDMR_DRAM_REQUEST_HH
