// Model-based property test for ordering constraints (§2.3): a random
// sequence of installs (First/Last/Before/After/Unordered), uninstalls,
// and SetOrder operations is applied both to the dispatcher and to a
// trivial reference model; the observed dispatch order must match the
// model's list after every operation.
#include <deque>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dispatcher.h"
#include "tests/eager_config.h"

namespace spin {
namespace {

std::vector<int> g_fired;

void Record(int* id, int64_t) { g_fired.push_back(*id); }

class OrderModelTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderModelTest, DispatchOrderMatchesModel) {
  std::mt19937_64 rng(GetParam());
  Module module("OrderModel");
  Dispatcher dispatcher(EagerConfig());
  Event<void(int64_t)> event("Order.Model", &module, nullptr, &dispatcher);

  struct Entry {
    int id;
    BindingHandle binding;
    std::unique_ptr<int> closure;
  };
  std::vector<Entry> model;  // model order == expected dispatch order
  int next_id = 0;

  auto find_in_model = [&](const BindingHandle& b) {
    for (size_t i = 0; i < model.size(); ++i) {
      if (model[i].binding == b) {
        return i;
      }
    }
    return model.size();
  };

  auto place_in_model = [&](Entry entry, const Order& order) {
    switch (order.kind) {
      case OrderKind::kFirst:
        model.insert(model.begin(), std::move(entry));
        break;
      case OrderKind::kBefore: {
        size_t at = find_in_model(order.ref);
        model.insert(model.begin() + static_cast<ptrdiff_t>(at),
                     std::move(entry));
        break;
      }
      case OrderKind::kAfter: {
        size_t at = find_in_model(order.ref);
        model.insert(model.begin() + static_cast<ptrdiff_t>(at) + 1,
                     std::move(entry));
        break;
      }
      case OrderKind::kUnordered:
      case OrderKind::kLast:
        model.push_back(std::move(entry));
        break;
    }
  };

  for (int step = 0; step < 120; ++step) {
    int op = static_cast<int>(rng() % 4);
    if (op == 0 || model.size() < 2) {
      // Install with a random constraint.
      Order order;
      switch (rng() % 5) {
        case 0:
          order.kind = OrderKind::kFirst;
          break;
        case 1:
          order.kind = OrderKind::kLast;
          break;
        case 2:
          if (!model.empty()) {
            order.kind = OrderKind::kBefore;
            order.ref = model[rng() % model.size()].binding;
          }
          break;
        case 3:
          if (!model.empty()) {
            order.kind = OrderKind::kAfter;
            order.ref = model[rng() % model.size()].binding;
          }
          break;
        default:
          break;
      }
      Entry entry;
      entry.id = next_id++;
      entry.closure = std::make_unique<int>(entry.id);
      entry.binding = dispatcher.InstallHandler(
          event, &Record, entry.closure.get(),
          {.order = order, .module = &module});
      place_in_model(std::move(entry), order);
    } else if (op == 1) {
      // Uninstall a random binding.
      size_t at = rng() % model.size();
      dispatcher.Uninstall(model[at].binding, &module);
      model.erase(model.begin() + static_cast<ptrdiff_t>(at));
    } else if (op == 2) {
      // Re-place a random binding with SetOrder.
      size_t at = rng() % model.size();
      Entry entry = std::move(model[at]);
      model.erase(model.begin() + static_cast<ptrdiff_t>(at));
      Order order;
      order.kind = rng() % 2 == 0 ? OrderKind::kFirst : OrderKind::kLast;
      if (!model.empty() && rng() % 2 == 0) {
        order.kind = rng() % 2 == 0 ? OrderKind::kBefore : OrderKind::kAfter;
        order.ref = model[rng() % model.size()].binding;
      }
      dispatcher.SetOrder(entry.binding, order);
      place_in_model(std::move(entry), order);
    }

    // Verify: raise and compare the fired sequence against the model.
    g_fired.clear();
    if (model.empty()) {
      EXPECT_THROW(event.Raise(step), NoHandlerError);
      continue;
    }
    event.Raise(step);
    std::vector<int> expected;
    expected.reserve(model.size());
    for (const Entry& entry : model) {
      expected.push_back(entry.id);
    }
    ASSERT_EQ(g_fired, expected) << "seed " << GetParam() << " step "
                                 << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace spin
