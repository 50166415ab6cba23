#include "src/core/asketch.h"

namespace asketch {

// Explicit instantiations of the persisted filter/sketch combinations
// (the ones asketchd and asketch_cli serialize); they keep compile times
// down. An explicit instantiation compiles every member, serialization
// included, so combinations whose parts are not serializable are left to
// implicit instantiation.
template class ASketch<StrictHeapFilter, CountMin>;
template class ASketch<RelaxedHeapFilter, CountMin>;
template class ASketch<RelaxedHeapFilter, SalsaCountMin>;

}  // namespace asketch
