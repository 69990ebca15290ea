// The int8 preset, Quantized8ProposedDiscriminator (OURS-INT8, snapshot
// kind 5), is declared beside the int16 one in discrim/quantized_proposed.h;
// this header keeps its include path.
#pragma once

#include "discrim/quantized_proposed.h"
