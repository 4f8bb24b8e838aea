#include "cells/cell_types.h"

#include <stdexcept>

#include "stats/rng.h"

namespace lvf2::cells {

std::string to_string(CellFamily family) {
  switch (family) {
    case CellFamily::kInv: return "INV";
    case CellFamily::kBuf: return "BUFF";
    case CellFamily::kNand: return "NAND";
    case CellFamily::kNor: return "NOR";
    case CellFamily::kAnd: return "AND";
    case CellFamily::kOr: return "OR";
    case CellFamily::kXor: return "XOR";
    case CellFamily::kXnor: return "XNOR";
    case CellFamily::kMux: return "MUX";
    case CellFamily::kFullAdder: return "FA";
    case CellFamily::kHalfAdder: return "HA";
  }
  return "?";
}

std::string TimingArc::label() const {
  return input_pin + "->" + output_pin + (rise_output ? " (rise)" : " (fall)");
}

std::string Cell::type_name() const {
  switch (family) {
    case CellFamily::kInv:
    case CellFamily::kBuf:
    case CellFamily::kFullAdder:
    case CellFamily::kHalfAdder:
      return to_string(family);
    default:
      return to_string(family) + std::to_string(inputs);
  }
}

std::string input_pin_name(CellFamily family, int index) {
  if (family == CellFamily::kMux) {
    // Data pins D0..D(n-1); selection handled as extra pins by caller.
    std::string pin = "D";
    pin += std::to_string(index);
    return pin;
  }
  static const char* kPins[] = {"A", "B", "C", "D", "E", "F"};
  if (index < 0 || index >= 6) throw std::out_of_range("input pin index");
  return kPins[index];
}

namespace {

// Per-family electrical/personality base parameters.
struct FamilyTraits {
  int nmos_stack = 1;        ///< series NMOS in the worst fall path
  int pmos_stack = 1;        ///< series PMOS in the worst rise path
  double drive_scale = 1.0;  ///< relative device sizing
  double internal_cap = 0.0012;
  double cap_per_input = 0.0004;
  double gain_base = 1.0;    ///< mechanism-B gain scale
  double offset_base = 0.0;  ///< regime threshold shift
};

FamilyTraits family_traits(CellFamily family, int inputs) {
  FamilyTraits t;
  switch (family) {
    case CellFamily::kInv:
      t.gain_base = 0.9;
      break;
    case CellFamily::kBuf:
      // Two stages; the first stage's smoothing lowers the effective
      // mixture separation.
      t.internal_cap = 0.0022;
      t.gain_base = 0.65;
      t.offset_base = -0.2;
      break;
    case CellFamily::kNand:
      t.nmos_stack = inputs;
      t.gain_base = 1.15;
      break;
    case CellFamily::kNor:
      t.pmos_stack = inputs;
      t.gain_base = 1.1;
      t.offset_base = 0.1;
      break;
    case CellFamily::kAnd:
      t.nmos_stack = inputs;
      t.internal_cap = 0.0024;
      t.gain_base = 0.95;
      t.offset_base = -0.15;
      break;
    case CellFamily::kOr:
      t.pmos_stack = inputs;
      t.internal_cap = 0.0024;
      t.gain_base = 0.9;
      t.offset_base = -0.1;
      break;
    case CellFamily::kXor:
      t.nmos_stack = 2;
      t.pmos_stack = 2;
      t.drive_scale = 0.85;
      t.internal_cap = 0.0028 + 0.0007 * inputs;
      t.gain_base = 1.35;
      t.offset_base = 0.15;
      break;
    case CellFamily::kXnor:
      t.nmos_stack = 2;
      t.pmos_stack = 2;
      t.drive_scale = 0.85;
      t.internal_cap = 0.0030 + 0.0007 * inputs;
      t.gain_base = 1.3;
      t.offset_base = 0.2;
      break;
    case CellFamily::kMux:
      t.nmos_stack = 2;
      t.pmos_stack = 2;
      t.drive_scale = 0.9;
      t.internal_cap = 0.0024 + 0.0009 * inputs;
      t.gain_base = 1.2;
      break;
    case CellFamily::kFullAdder:
      t.nmos_stack = 3;
      t.pmos_stack = 3;
      t.internal_cap = 0.0042;
      t.gain_base = 1.25;
      t.offset_base = 0.1;
      break;
    case CellFamily::kHalfAdder:
      t.nmos_stack = 2;
      t.pmos_stack = 2;
      t.internal_cap = 0.0034;
      t.gain_base = 1.2;
      break;
  }
  return t;
}

// Deterministic per-arc personality in [0,1): keeps the library's
// shape diversity reproducible across runs.
double personality(const std::string& key, std::uint64_t salt) {
  const std::uint64_t h =
      stats::combine_seed(stats::hash_name(key), salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

spice::StageElectrical make_stage(const FamilyTraits& traits, double drive,
                                  bool rise_output,
                                  const std::string& arc_key) {
  spice::StageElectrical stage;
  stage.pull.is_nmos = !rise_output;  // rising output pulls through PMOS
  stage.pull.stack = rise_output ? traits.pmos_stack : traits.nmos_stack;
  stage.pull.parallel = 1;
  stage.pull.drive = drive * traits.drive_scale;
  stage.internal_cap_pf = traits.internal_cap * (0.8 + 0.4 * drive);
  stage.input_cap_pf = 0.0018 * drive * traits.drive_scale;

  const double u1 = personality(arc_key, 0xA1);
  const double u2 = personality(arc_key, 0xB2);
  const double u3 = personality(arc_key, 0xC3);
  stage.mechanism_gain = traits.gain_base * (0.45 + 1.2 * u1);
  stage.mechanism_offset = traits.offset_base + 1.6 * (u2 - 0.5);
  stage.mechanism_gain_transition =
      stage.mechanism_gain * (1.1 + 0.8 * u3);
  stage.mechanism_width = 1.2 + 0.5 * personality(arc_key, 0xD4);
  return stage;
}

}  // namespace

Cell build_cell(CellFamily family, int inputs, double drive) {
  if (inputs < 1 || inputs > 4) {
    throw std::invalid_argument("build_cell: inputs must be in [1,4]");
  }
  Cell cell;
  cell.family = family;
  cell.inputs = inputs;
  cell.drive = drive;
  std::string strength = "X";
  strength += (drive == 1.0)   ? "1"
              : (drive == 2.0) ? "2"
              : (drive == 4.0) ? "4"
                               : std::to_string(drive);
  Cell tmp;
  tmp.family = family;
  tmp.inputs = inputs;
  cell.name = tmp.type_name() + "_" + strength;

  const FamilyTraits traits = family_traits(family, inputs);

  std::vector<std::string> outputs = {"Y"};
  if (family == CellFamily::kFullAdder || family == CellFamily::kHalfAdder) {
    outputs = {"S", "CO"};
  }
  std::vector<std::string> pins;
  if (family == CellFamily::kFullAdder) {
    pins = {"A", "B", "CI"};
  } else if (family == CellFamily::kMux) {
    for (int i = 0; i < inputs; ++i) pins.push_back(input_pin_name(family, i));
    pins.push_back("S0");
    if (inputs > 2) pins.push_back("S1");
  } else {
    for (int i = 0; i < inputs; ++i) pins.push_back(input_pin_name(family, i));
  }

  for (const std::string& out : outputs) {
    for (const std::string& pin : pins) {
      for (bool rise : {true, false}) {
        TimingArc arc;
        arc.input_pin = pin;
        arc.output_pin = out;
        arc.rise_output = rise;
        const std::string key = cell.name + ":" + pin + ":" + out +
                                (rise ? ":R" : ":F");
        arc.stage = make_stage(traits, drive, rise, key);
        cell.arcs.push_back(std::move(arc));
      }
    }
  }
  return cell;
}

}  // namespace lvf2::cells
