#include "lang/plan.h"

namespace caldb {

std::string_view PlanOpCodeName(PlanOpCode op) {
  switch (op) {
    case PlanOpCode::kGenerate:
      return "GENERATE";
    case PlanOpCode::kLoadValues:
      return "LOAD_VALUES";
    case PlanOpCode::kInvoke:
      return "INVOKE";
    case PlanOpCode::kToday:
      return "TODAY";
    case PlanOpCode::kLiteral:
      return "LITERAL";
    case PlanOpCode::kYearSelect:
      return "YEAR_SELECT";
    case PlanOpCode::kGenerateSpan:
      return "GENERATE_SPAN";
    case PlanOpCode::kForEach:
      return "FOREACH";
    case PlanOpCode::kSelect:
      return "SELECT";
    case PlanOpCode::kUnion:
      return "UNION";
    case PlanOpCode::kDifference:
      return "DIFFERENCE";
    case PlanOpCode::kCalOperate:
      return "CALOPERATE";
    case PlanOpCode::kCopy:
      return "COPY";
    case PlanOpCode::kReturn:
      return "RETURN";
    case PlanOpCode::kReturnString:
      return "RETURN_STRING";
    case PlanOpCode::kIf:
      return "IF";
    case PlanOpCode::kWhile:
      return "WHILE";
  }
  return "?";
}

namespace {

std::string HintToString(const WindowHint& hint) {
  switch (hint.mode) {
    case WindowHint::Mode::kNone:
      return "";
    case WindowHint::Mode::kSpan:
      return " window=span(r" + std::to_string(hint.reg) + ")";
    case WindowHint::Mode::kBefore:
      return " window=before(r" + std::to_string(hint.reg) + ")";
  }
  return "";
}

std::string ProfileSuffix(const StepProfile* profile, const PlanStep& s) {
  if (profile == nullptr) return "";
  const StepProfile::Node* node = profile->Find(s);
  if (node == nullptr || node->execs == 0) return "  [not executed]";
  // Sub-microsecond times render with one decimal ("0.3us").
  int64_t tenths = node->total_ns / 100;
  return "  [execs=" + std::to_string(node->execs) + " time=" +
         std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
         "us out=" + std::to_string(node->out_intervals) + "]";
}

void StepsToString(const Plan& plan, const std::vector<PlanStep>& steps,
                   int depth, const StepProfile* profile, std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  for (const PlanStep& s : steps) {
    *out += indent;
    switch (s.op) {
      case PlanOpCode::kGenerate:
        *out += "r" + std::to_string(s.dst) + " = GENERATE " +
                std::string(GranularityName(s.gran_arg)) + HintToString(s.hint);
        break;
      case PlanOpCode::kLoadValues:
        *out += "r" + std::to_string(s.dst) + " = LOAD_VALUES " + plan.name(s) +
                HintToString(s.hint);
        break;
      case PlanOpCode::kInvoke:
        *out += "r" + std::to_string(s.dst) + " = INVOKE " + plan.name(s) +
                HintToString(s.hint);
        break;
      case PlanOpCode::kToday:
        *out += "r" + std::to_string(s.dst) + " = TODAY";
        break;
      case PlanOpCode::kLiteral:
        *out += "r" + std::to_string(s.dst) + " = LITERAL " +
                plan.literals[static_cast<size_t>(s.payload)].ToString();
        break;
      case PlanOpCode::kYearSelect:
        *out += "r" + std::to_string(s.dst) + " = YEAR " + std::to_string(s.year);
        break;
      case PlanOpCode::kGenerateSpan: {
        const CivilSpan& span = plan.civil_spans[static_cast<size_t>(s.payload)];
        *out += "r" + std::to_string(s.dst) + " = GENERATE " +
                std::string(GranularityName(s.gran_arg)) + " in " +
                std::string(GranularityName(s.unit_arg)) + " [" + span.start +
                ", " + span.end + "]";
        break;
      }
      case PlanOpCode::kForEach:
        *out += "r" + std::to_string(s.dst) + " = FOREACH r" +
                std::to_string(s.lhs) + (s.strict ? " :" : " .") +
                std::string(ListOpName(s.listop)) + (s.strict ? ": r" : ". r") +
                std::to_string(s.rhs);
        break;
      case PlanOpCode::kSelect: {
        *out += "r" + std::to_string(s.dst) + " = SELECT [";
        const std::vector<SelectionItem>& selection =
            plan.selections[static_cast<size_t>(s.payload)];
        for (size_t i = 0; i < selection.size(); ++i) {
          if (i > 0) *out += ",";
          const SelectionItem& it = selection[i];
          switch (it.kind) {
            case SelectionItem::Kind::kIndex:
              *out += std::to_string(it.index);
              break;
            case SelectionItem::Kind::kLast:
              *out += "n";
              break;
            case SelectionItem::Kind::kRange:
              *out += std::to_string(it.range_lo) + ".." +
                      (it.range_hi == SelectionItem::kLastMarker
                           ? "n"
                           : std::to_string(it.range_hi));
              break;
          }
        }
        *out += "] r" + std::to_string(s.lhs);
        break;
      }
      case PlanOpCode::kUnion:
        *out += "r" + std::to_string(s.dst) + " = r" + std::to_string(s.lhs) +
                " + r" + std::to_string(s.rhs);
        break;
      case PlanOpCode::kDifference:
        *out += "r" + std::to_string(s.dst) + " = r" + std::to_string(s.lhs) +
                " - r" + std::to_string(s.rhs);
        break;
      case PlanOpCode::kCalOperate: {
        const CalOperateArgs& args =
            plan.caloperates[static_cast<size_t>(s.payload)];
        *out += "r" + std::to_string(s.dst) + " = CALOPERATE r" +
                std::to_string(s.lhs) + " te=";
        *out += args.te.has_value() ? std::to_string(*args.te) : "*";
        *out += " groups=(";
        for (size_t i = 0; i < args.groups.size(); ++i) {
          if (i > 0) *out += ";";
          *out += std::to_string(args.groups[i]);
        }
        *out += ")";
        break;
      }
      case PlanOpCode::kCopy:
        *out += "r" + std::to_string(s.dst) + " = r" + std::to_string(s.lhs);
        break;
      case PlanOpCode::kReturn:
        *out += "RETURN r" + std::to_string(s.lhs);
        break;
      case PlanOpCode::kReturnString:
        *out += "RETURN \"" + plan.name(s) + "\"";
        break;
      case PlanOpCode::kIf:
        *out += "IF cond(r" + std::to_string(s.lhs) + "):" +
                ProfileSuffix(profile, s) + "\n";
        StepsToString(plan, plan.block(s, 0), depth + 1, profile, out);
        *out += indent + "THEN:\n";
        StepsToString(plan, plan.block(s, 1), depth + 1, profile, out);
        if (!plan.block(s, 2).empty()) {
          *out += indent + "ELSE:\n";
          StepsToString(plan, plan.block(s, 2), depth + 1, profile, out);
        }
        continue;
      case PlanOpCode::kWhile:
        *out += "WHILE cond(r" + std::to_string(s.lhs) + "):" +
                ProfileSuffix(profile, s) + "\n";
        StepsToString(plan, plan.block(s, 0), depth + 1, profile, out);
        *out += indent + "DO:\n";
        StepsToString(plan, plan.block(s, 1), depth + 1, profile, out);
        continue;
    }
    *out += ProfileSuffix(profile, s);
    *out += "\n";
  }
}

}  // namespace

std::string Plan::ToString(const StepProfile* profile) const {
  std::string out = "plan unit=" + std::string(GranularityName(unit)) +
                    " registers=" + std::to_string(num_registers) + "\n";
  StepsToString(*this, steps, 0, profile, &out);
  return out;
}

}  // namespace caldb
