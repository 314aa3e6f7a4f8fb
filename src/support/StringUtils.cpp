//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace unit;

std::string unit::formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  va_end(Args);
  return Out;
}

std::string unit::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string unit::shapeStr(const std::vector<int64_t> &Shape) {
  std::vector<std::string> Parts;
  Parts.reserve(Shape.size());
  for (int64_t D : Shape)
    Parts.push_back(std::to_string(D));
  return join(Parts, "x");
}

std::string unit::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string unit::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

namespace {

template <typename T>
bool parseNumberImpl(std::string_view Text, T Min, T Max, T &Out,
                     std::string &Err) {
  const std::string Quoted = "'" + std::string(Text) + "'";
  const char *End = Text.data() + Text.size();
  T Value{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Text.empty())
    Err = "empty value";
  else if (Ec == std::errc::invalid_argument)
    Err = Quoted + " is not a number";
  else if (Ptr != End)
    Err = "trailing characters in " + Quoted;
  else if (Ec == std::errc() && !std::isfinite(static_cast<double>(Value)))
    Err = Quoted + " is not a finite number";
  else if (Ec != std::errc() || Value < Min || Value > Max)
    Err = Min == T(0) && Text[0] == '-'
              ? Quoted + " must not be negative"
              : Quoted + formatStr(" is outside [%.17g, %.17g]",
                                   static_cast<double>(Min),
                                   static_cast<double>(Max));
  else {
    Out = Value;
    return true;
  }
  return false;
}

} // namespace

bool unit::parseNumber(std::string_view Text, int64_t Min, int64_t Max,
                       int64_t &Out, std::string &Err) {
  return parseNumberImpl(Text, Min, Max, Out, Err);
}

bool unit::parseNumber(std::string_view Text, double Min, double Max,
                       double &Out, std::string &Err) {
  return parseNumberImpl(Text, Min, Max, Out, Err);
}
