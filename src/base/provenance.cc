#include "base/provenance.hh"

#include <ostream>
#include <sstream>

#ifndef FENCELESS_GIT_HASH
#define FENCELESS_GIT_HASH "unknown"
#endif

#ifndef FENCELESS_BUILD_TYPE
#define FENCELESS_BUILD_TYPE "unknown"
#endif

namespace fenceless::provenance
{

const char *
gitHash()
{
    return FENCELESS_GIT_HASH;
}

const char *
buildType()
{
    return FENCELESS_BUILD_TYPE;
}

void
writeJsonObject(std::ostream &os)
{
    os << "{\"git\": \"" << gitHash() << "\", \"build_type\": \""
       << buildType() << "\"}";
}

std::string
jsonObject()
{
    std::ostringstream os;
    writeJsonObject(os);
    return os.str();
}

std::string
oneLine()
{
    std::ostringstream os;
    os << "git=" << gitHash() << " build=" << buildType();
    return os.str();
}

} // namespace fenceless::provenance
