// Small string helpers used across modules (no external deps).
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace kd {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::vector<std::string> StrSplit(const std::string& s, char sep);

bool StartsWith(const std::string& s, const std::string& prefix);

// Joins parts with `sep`, skipping empty parts.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

}  // namespace kd
