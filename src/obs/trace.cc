#include "src/obs/trace.h"

#include <fstream>
#include <sstream>

namespace palladium {
namespace obs {

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kIrqRaise:
      return "irq_raise";
    case EventType::kIrqDeliver:
      return "irq_deliver";
    case EventType::kIrqEoi:
      return "irq_eoi";
    case EventType::kCrossingEnter:
      return "crossing_enter";
    case EventType::kCrossingExit:
      return "crossing_exit";
    case EventType::kContextSwitch:
      return "context_switch";
    case EventType::kTlbShootdown:
      return "tlb_shootdown";
    case EventType::kNapiPoll:
      return "napi_poll";
    case EventType::kFrameDma:
      return "frame_dma";
    case EventType::kFrameClassify:
      return "frame_classify";
    case EventType::kFrameEnqueue:
      return "frame_enqueue";
    case EventType::kFrameRecv:
      return "frame_recv";
    case EventType::kFrameTx:
      return "frame_tx";
  }
  return "?";
}

void FlightRecorder::Reset(u32 num_tracks, u32 capacity) {
  tracks_.assign(num_tracks, Track{});
  capacity_ = capacity != 0 ? capacity : 1;
  for (Track& t : tracks_) t.ring.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void FlightRecorder::SetTrackName(u32 track, std::string name) {
  tracks_[track].name = std::move(name);
}

std::vector<Event> FlightRecorder::Events(u32 track) const {
  const Track& t = tracks_[track];
  std::vector<Event> out;
  out.reserve(t.ring.size());
  for (size_t i = 0; i < t.ring.size(); ++i) {
    out.push_back(t.ring[(t.head + i) % t.ring.size()]);
  }
  return out;
}

u64 FlightRecorder::TotalDropped() const {
  u64 sum = 0;
  for (const Track& t : tracks_) sum += t.dropped;
  return sum;
}

std::string FlightRecorder::ToJsonl() const {
  std::ostringstream out;
  for (u32 i = 0; i < num_tracks(); ++i) {
    const Track& t = tracks_[i];
    out << "{\"meta\":\"track\",\"track\":" << i << ",\"name\":\""
        << (t.name.empty() ? "track" + std::to_string(i) : t.name)
        << "\",\"events\":" << t.total << ",\"dropped\":" << t.dropped
        << "}\n";
  }
  for (u32 i = 0; i < num_tracks(); ++i) {
    for (const Event& e : Events(i)) {
      out << "{\"track\":" << i << ",\"cycle\":" << e.cycle << ",\"type\":\""
          << EventTypeName(e.type) << "\",\"arg0\":" << e.arg0 << ",\"arg1\":" << e.arg1
          << "}\n";
    }
  }
  return out.str();
}

bool FlightRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJsonl();
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace palladium
