// Lint fixture (lint-unordered-iter, member shape): the header
// declares the container, unordered_member.cc iterates it. Never
// compiled.
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>

namespace fix {

class Registry
{
  public:
    void writeText(std::ostream &out) const;

  private:
    std::unordered_map<std::string, std::uint64_t> byName;
};

} // namespace fix
