// The region-sharded multicolor sweep is the Algorithm-2 engine run on a
// plan with two or more strips; see core/multicolor_mstep.hpp.  This name
// is kept for callers that build it from a shard::ShardPlan and a pool.
#pragma once

#include "core/multicolor_mstep.hpp"

namespace mstep::shard {

using ShardedMulticolorMStepSsor = core::MulticolorMStepSsor;

}  // namespace mstep::shard
