// Lint fixture (lint-unordered-iter, member shape): the snapshot is
// written in the bucket order of a member that only the same-stem
// header declares unordered. Never compiled.
#include "unordered_member.hh"

#include <ostream>

namespace fix {

void
Registry::writeText(std::ostream &out) const
{
    for (const auto &[name, value] : byName)
        out << name << ' ' << value << '\n';
}

} // namespace fix
